// Frame codec tests: encode/decode round-trips (including a randomized
// property sweep over types and payload sizes) and the corruption matrix
// — truncated frames, bit-flipped payloads and headers, bad version and
// magic bytes — each mapping to the documented Status code so a receiver
// can distinguish "peer gone" from "protocol skew" from "corruption".

#include "cluster/frame.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <span>
#include <string>

#include "cluster/transport.h"
#include "common/net.h"
#include "common/random.h"
#include "trace/store/format.h"

namespace rod::cluster {
namespace {

std::span<const std::byte> Bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Decodes header + payload of one encoded frame buffer.
Status DecodeWhole(const std::string& wire, Frame* out) {
  if (wire.size() < kFrameHeaderBytes) {
    return Status::Unavailable("short buffer");
  }
  auto header = DecodeFrameHeader(Bytes(wire));
  ROD_RETURN_IF_ERROR(header.status());
  const std::string_view payload(wire.data() + kFrameHeaderBytes,
                                 wire.size() - kFrameHeaderBytes);
  if (payload.size() != header->payload_len) {
    return Status::Unavailable("short payload");
  }
  ROD_RETURN_IF_ERROR(ValidateFramePayload(*header, payload));
  out->type = header->type;
  out->payload = std::string(payload);
  return Status::OK();
}

TEST(ClusterFrameTest, EncodeDecodeRoundTrip) {
  const std::string wire = EncodeFrame(MsgType::kHeartbeat, "hello world");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 11);

  Frame frame;
  ASSERT_TRUE(DecodeWhole(wire, &frame).ok());
  EXPECT_EQ(frame.type, MsgType::kHeartbeat);
  EXPECT_EQ(frame.payload, "hello world");
}

TEST(ClusterFrameTest, RoundTripPropertyOverTypesAndSizes) {
  Rng rng(0xf4a3e5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto type = static_cast<MsgType>(1 + (trial % kMaxMsgType));
    const size_t len = static_cast<size_t>(rng.Uniform(0.0, 4096.0));
    std::string payload(len, '\0');
    for (char& c : payload) {
      c = static_cast<char>(static_cast<int>(rng.Uniform(0.0, 256.0)));
    }
    const std::string wire = EncodeFrame(type, payload);
    Frame frame;
    ASSERT_TRUE(DecodeWhole(wire, &frame).ok()) << "trial " << trial;
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(ClusterFrameTest, EmptyPayloadIsValid) {
  const std::string wire = EncodeFrame(MsgType::kResume, "");
  Frame frame;
  ASSERT_TRUE(DecodeWhole(wire, &frame).ok());
  EXPECT_EQ(frame.type, MsgType::kResume);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ClusterFrameTest, BitFlippedPayloadIsDataLoss) {
  std::string wire = EncodeFrame(MsgType::kTuples, "payload-bytes");
  wire[kFrameHeaderBytes + 3] ^= 0x10;  // Flip one payload bit.
  Frame frame;
  EXPECT_EQ(DecodeWhole(wire, &frame).code(), StatusCode::kDataLoss);
}

TEST(ClusterFrameTest, BitFlippedHeaderIsDataLoss) {
  // Any header corruption trips the header CRC before field checks, so
  // even a flipped length byte cannot trigger a giant allocation.
  std::string wire = EncodeFrame(MsgType::kTuples, "payload");
  wire[9] ^= 0x40;  // Flip a payload_len bit.
  Frame frame;
  EXPECT_EQ(DecodeWhole(wire, &frame).code(), StatusCode::kDataLoss);
}

/// Recomputes the header CRC (bytes [16,20) over [0,16)) with the same
/// CRC-32 the framing layer shares with the trace store.
std::string ReencodeHeaderCrc(std::string wire) {
  const uint32_t crc = trace::store::Crc32(
      {reinterpret_cast<const std::byte*>(wire.data()), 16});
  for (int i = 0; i < 4; ++i) {
    wire[16 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  return wire;
}

/// Rewrites byte `at`, then fixes the header CRC so the corruption
/// reaches the field checks (version/magic/type) instead of the CRC.
std::string CorruptWithValidCrc(std::string wire, size_t at, char value) {
  wire[at] = value;
  return ReencodeHeaderCrc(std::move(wire));
}

TEST(ClusterFrameTest, BadVersionByteIsInvalidArgument) {
  const std::string wire = CorruptWithValidCrc(
      EncodeFrame(MsgType::kHello, "x"), 4,
      static_cast<char>(kFrameVersion + 9));
  Frame frame;
  EXPECT_EQ(DecodeWhole(wire, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFrameTest, VersionOneFrameIsInvalidArgument) {
  // Version 2 changed the kHeartbeat and kFinalStats payload layouts, so
  // a correctly CRC'd version-1 frame is protocol skew, not corruption.
  ASSERT_EQ(kFrameVersion, 2);
  const std::string wire = CorruptWithValidCrc(
      EncodeFrame(MsgType::kHeartbeat, "x"), 4, static_cast<char>(1));
  Frame frame;
  EXPECT_EQ(DecodeWhole(wire, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFrameTest, BadMagicIsInvalidArgument) {
  const std::string wire =
      CorruptWithValidCrc(EncodeFrame(MsgType::kHello, "x"), 0, 'X');
  Frame frame;
  EXPECT_EQ(DecodeWhole(wire, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFrameTest, UnknownMessageTypeIsInvalidArgument) {
  const std::string wire = CorruptWithValidCrc(
      EncodeFrame(MsgType::kHello, "x"), 5, static_cast<char>(200));
  Frame frame;
  EXPECT_EQ(DecodeWhole(wire, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFrameTest, OversizedLengthIsInvalidArgument) {
  std::string wire = EncodeFrame(MsgType::kHello, "x");
  // Claim a payload over the per-call cap (with a consistent header CRC).
  wire[8] = 0x01;
  wire[9] = 0x00;
  wire[10] = 0x00;
  wire[11] = 0x01;  // 0x01000001 = ~16.8M > 16M cap.
  wire = ReencodeHeaderCrc(std::move(wire));
  auto header = DecodeFrameHeader(Bytes(wire), /*max_payload=*/16u << 20);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterFrameTest, TruncatedFrameOverSocketIsUnavailable) {
  // A peer that dies mid-frame leaves a truncated stream: the reader
  // must report kUnavailable (peer gone), not hang or misparse.
  FrameListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  auto client = FrameConn::DialLoopback(listener.port());
  ASSERT_TRUE(client.ok());
  auto server = listener.Accept();
  ASSERT_TRUE(server.ok());

  const std::string wire = EncodeFrame(MsgType::kHeartbeat, "truncated!");
  ASSERT_TRUE(net::WriteAll(client->fd(), wire.data(), wire.size() - 4));
  client->Close();  // EOF mid-payload.

  Frame frame;
  EXPECT_EQ(server->Recv(&frame).code(), StatusCode::kUnavailable);
}

bool NoDelaySet(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  return ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) == 0 &&
         value != 0;
}

TEST(ClusterFrameTest, SocketRoundTripThroughTransport) {
  FrameListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  auto client = FrameConn::DialLoopback(listener.port());
  ASSERT_TRUE(client.ok());
  auto server = listener.Accept();
  ASSERT_TRUE(server.ok());
  // Both ends send each frame at once: Nagle would hold the second of
  // two back-to-back frames until the peer's delayed ACK.
  EXPECT_TRUE(NoDelaySet(client->fd()));
  EXPECT_TRUE(NoDelaySet(server->fd()));

  ASSERT_TRUE(client->Send(MsgType::kPlan, "the plan").ok());
  ASSERT_TRUE(client->Send(MsgType::kStart, "").ok());

  Frame frame;
  ASSERT_TRUE(server->Recv(&frame).ok());
  EXPECT_EQ(frame.type, MsgType::kPlan);
  EXPECT_EQ(frame.payload, "the plan");
  ASSERT_TRUE(server->Recv(&frame).ok());
  EXPECT_EQ(frame.type, MsgType::kStart);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(ClusterFrameTest, MsgTypeNamesAreStable) {
  EXPECT_STREQ(MsgTypeName(MsgType::kHello), "hello");
  EXPECT_STREQ(MsgTypeName(MsgType::kTuples), "tuples");
  EXPECT_STREQ(MsgTypeName(MsgType::kShutdown), "shutdown");
  EXPECT_STREQ(MsgTypeName(MsgType::kPing), "ping");
  EXPECT_STREQ(MsgTypeName(MsgType::kPong), "pong");
  EXPECT_STREQ(MsgTypeName(MsgType::kStatsReport), "stats_report");
  EXPECT_STREQ(MsgTypeName(MsgType::kClockSync), "clock_sync");
  EXPECT_STREQ(MsgTypeName(MsgType::kFreeze), "freeze");
  EXPECT_STREQ(MsgTypeName(MsgType::kFrozenReport), "frozen_report");
  EXPECT_STREQ(MsgTypeName(static_cast<MsgType>(250)), "unknown");
}

}  // namespace
}  // namespace rod::cluster
