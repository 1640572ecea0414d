// Copyright (c) the ROD reproduction authors.
//
// The cluster wire format's framing layer: every message between cluster
// processes (worker <-> coordinator control, worker <-> worker tuple
// shipping) travels as one length-prefixed frame with a CRC'd fixed-size
// header and a CRC'd payload, so a half-written frame, a corrupted byte,
// or a protocol-version skew is detected at the receiver and mapped to a
// distinct Status code instead of silently desynchronizing the stream.
//
// Frame layout (all integers little-endian, matching the trace store):
//
//   offset  size  field
//        0     4  magic "RODC" (0x43444F52 as LE u32 of the bytes)
//        4     1  version (kFrameVersion)
//        5     1  message type (MsgType)
//        6     2  flags (reserved, written 0, ignored on read)
//        8     4  payload length in bytes
//       12     4  CRC-32 of the payload bytes
//       16     4  CRC-32 of header bytes [0, 16)
//
// Error mapping (see common/status.h):
//   kUnavailable      peer gone: EOF, reset, or timeout mid-frame
//   kInvalidArgument  bad magic / unsupported version / unknown type /
//                     payload length over the cap (protocol skew)
//   kDataLoss         header or payload CRC mismatch (corruption)

#ifndef ROD_CLUSTER_FRAME_H_
#define ROD_CLUSTER_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rod::cluster {

/// Every message type spoken by the cluster protocol, one byte on the
/// wire. Control-plane types flow worker <-> coordinator; kTuples flows
/// worker <-> worker on the data plane.
enum class MsgType : uint8_t {
  kHello = 1,      ///< worker -> coordinator: registration.
  kWelcome = 2,    ///< coordinator -> worker: assigned worker id + timing.
  kPlan = 3,       ///< coordinator -> worker: full deployment plan.
  kPlanAck = 4,    ///< worker -> coordinator: plan installed.
  kStart = 5,      ///< coordinator -> worker: begin the workload.
  kHeartbeat = 6,  ///< worker -> coordinator: liveness + load report.
  kTuples = 7,     ///< worker -> worker: one tuple batch for an operator.
  kPause = 8,      ///< coordinator -> worker: pause moved operators.
  kPauseAck = 9,   ///< worker -> coordinator: paused and drained.
  kPlanDiff = 10,  ///< coordinator -> worker: operator moves to apply.
  kResume = 11,    ///< coordinator -> worker: resume after a plan diff.
  kFinish = 12,    ///< coordinator -> worker: stop sources, drain, report.
  kFinalStats = 13,///< worker -> coordinator: final registry delta
                   ///< (a StatsReportMsg payload).
  kShutdown = 14,  ///< coordinator -> worker: exit.
  kPing = 15,      ///< coordinator -> worker: clock-sync probe (t1).
  kPong = 16,      ///< worker -> coordinator: probe echo (t1, t2, t3).
  kStatsReport = 17,  ///< worker -> coordinator: metric-snapshot delta.
  kClockSync = 18,    ///< coordinator -> worker: per-worker clock offsets.
  kFreeze = 19,       ///< coordinator -> worker: snapshot your rings now.
  kFrozenReport = 20, ///< worker -> coordinator: frozen incident artifact.
};

/// Last valid MsgType byte (frame decoding rejects anything above it).
inline constexpr uint8_t kMaxMsgType =
    static_cast<uint8_t>(MsgType::kFrozenReport);

/// Canonical lower-case name of `type` ("hello", "tuples", ...);
/// "unknown" for out-of-range bytes.
const char* MsgTypeName(MsgType type);

inline constexpr uint32_t kFrameMagic = 0x43444F52u;  // "RODC" (LE bytes).
/// Bumped on every payload layout change, so a peer on another version
/// is rejected as protocol skew (2: kHeartbeat without counters,
/// kFinalStats as a StatsReportMsg).
inline constexpr uint8_t kFrameVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 20;

/// Default cap on one frame's payload. Control messages are tiny; the
/// largest legitimate frame is a shipped plan or tuple batch, both well
/// under a mebibyte. The cap bounds the receiver's allocation when a
/// corrupt or hostile length field slips past the magic check.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

/// A decoded frame header.
struct FrameHeader {
  MsgType type = MsgType::kHello;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

/// One received message.
struct Frame {
  MsgType type = MsgType::kHello;
  std::string payload;
};

/// Encodes a complete frame (header + payload) ready to write.
std::string EncodeFrame(MsgType type, std::string_view payload);

/// Decodes and validates the 20-byte header in `bytes` (which must be at
/// least kFrameHeaderBytes long). `max_payload` caps the accepted length.
Result<FrameHeader> DecodeFrameHeader(std::span<const std::byte> bytes,
                                      uint32_t max_payload = kMaxFramePayload);

/// Verifies `payload` against the header's length and CRC.
Status ValidateFramePayload(const FrameHeader& header,
                            std::string_view payload);

/// Writes one frame to `fd` (blocking, retrying short writes). Returns
/// kUnavailable when the peer is gone.
Status WriteFrame(int fd, MsgType type, std::string_view payload);

/// Reads one frame from `fd` (blocking). Returns kUnavailable on EOF /
/// reset / timeout, kInvalidArgument on protocol skew, kDataLoss on CRC
/// mismatch; on any error the stream position is unspecified and the
/// connection should be dropped.
Status ReadFrame(int fd, Frame* out,
                 uint32_t max_payload = kMaxFramePayload);

}  // namespace rod::cluster

#endif  // ROD_CLUSTER_FRAME_H_
