#include "trace/store/format.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

namespace rod::trace::store {

namespace {

/// Byte-order audit: the store is defined little-endian, and the
/// zero-copy read path reinterprets mapped payload bytes as
/// ArrivalRecord directly. Every production target of this repo is
/// little-endian; a big-endian port would need a decode-on-load path.
static_assert(std::endian::native == std::endian::little,
              "trace store assumes a little-endian host");

void StoreU32(std::byte* p, uint32_t v) { std::memcpy(p, &v, 4); }
void StoreU64(std::byte* p, uint64_t v) { std::memcpy(p, &v, 8); }
void StoreF64(std::byte* p, double v) { std::memcpy(p, &v, 8); }

uint32_t LoadU32(const std::byte* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t LoadU64(const std::byte* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
double LoadF64(const std::byte* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

/// CRC-32 lookup tables for slicing by 8, generated once (thread-safe
/// since C++11 statics). Row 0 is the byte-wise table of the reflected
/// polynomial; row k carries a byte's remainder through k more zero
/// bytes, so one step can look up eight bytes independently.
const std::array<std::array<uint32_t, 256>, 8>& CrcTables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(std::span<const std::byte> bytes, uint32_t seed) {
  const auto& t = CrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  size_t n = bytes.size();
  // Eight bytes a step: the remainder folds into the first four (read
  // little-endian), and each byte is looked up in the row for the number
  // of bytes that follow it within the step.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadU32(p) ^ c;
    const uint32_t hi = LoadU32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// FileHeader layout (64 bytes):
//   [0..8)   magic "RODTRC01"
//   [8..12)  version
//   [12..16) record_size (sizeof(ArrivalRecord), layout audit)
//   [16..20) records_per_segment
//   [20..24) num_streams
//   [24..32) num_segments
//   [32..40) total_records
//   [40..48) time_lo
//   [48..56) time_hi
//   [56..60) reserved (0)
//   [60..64) CRC-32 of bytes [0..60)

void EncodeFileHeader(const StoreInfo& info,
                      std::span<std::byte, kFileHeaderBytes> out) {
  std::memset(out.data(), 0, out.size());
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  StoreU32(out.data() + 8, kFormatVersion);
  StoreU32(out.data() + 12, static_cast<uint32_t>(sizeof(ArrivalRecord)));
  StoreU32(out.data() + 16, info.records_per_segment);
  StoreU32(out.data() + 20, info.num_streams);
  StoreU64(out.data() + 24, info.num_segments);
  StoreU64(out.data() + 32, info.total_records);
  StoreF64(out.data() + 40, info.time_lo);
  StoreF64(out.data() + 48, info.time_hi);
  StoreU32(out.data() + 60, Crc32(out.first(60)));
}

Result<StoreInfo> DecodeFileHeader(std::span<const std::byte> bytes) {
  if (bytes.size() < kFileHeaderBytes) {
    return Status::DataLoss("trace store header truncated: " +
                            std::to_string(bytes.size()) + " bytes, want " +
                            std::to_string(kFileHeaderBytes));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a trace store file (bad magic)");
  }
  const uint32_t stored_crc = LoadU32(bytes.data() + 60);
  const uint32_t actual_crc = Crc32(bytes.first(60));
  if (stored_crc != actual_crc) {
    return Status::DataLoss(
        "trace store header CRC mismatch (file truncated mid-write or "
        "corrupted)");
  }
  const uint32_t version = LoadU32(bytes.data() + 8);
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported trace store version " +
                                   std::to_string(version));
  }
  const uint32_t record_size = LoadU32(bytes.data() + 12);
  if (record_size != sizeof(ArrivalRecord)) {
    return Status::InvalidArgument("trace store record size " +
                                   std::to_string(record_size) +
                                   " does not match this build");
  }
  StoreInfo info;
  info.records_per_segment = LoadU32(bytes.data() + 16);
  info.num_streams = LoadU32(bytes.data() + 20);
  info.num_segments = LoadU64(bytes.data() + 24);
  info.total_records = LoadU64(bytes.data() + 32);
  info.time_lo = LoadF64(bytes.data() + 40);
  info.time_hi = LoadF64(bytes.data() + 48);
  if (info.records_per_segment == 0) {
    return Status::DataLoss("trace store manifest: zero segment capacity");
  }
  // A store holds exactly the segments its records need: no empty
  // trailing segment, no record beyond the last segment's capacity.
  const uint64_t cap = info.records_per_segment;
  const uint64_t min_records =
      info.num_segments == 0 ? 0 : (info.num_segments - 1) * cap + 1;
  const uint64_t max_records = info.num_segments * cap;
  if (info.total_records < min_records || info.total_records > max_records) {
    return Status::DataLoss(
        "trace store manifest: " + std::to_string(info.total_records) +
        " records do not fit " + std::to_string(info.num_segments) +
        " segments of " + std::to_string(cap));
  }
  return info;
}

// SegmentHeader layout (16 bytes):
//   [0..4)   record_count
//   [4..8)   payload CRC-32
//   [8..16)  first_record (global index; redundancy check against the
//            segment's position, catches segment-swap corruption)

void EncodeSegmentHeader(const SegmentInfo& seg,
                         std::span<std::byte, kSegmentHeaderBytes> out) {
  StoreU32(out.data(), seg.record_count);
  StoreU32(out.data() + 4, seg.payload_crc);
  StoreU64(out.data() + 8, seg.first_record);
}

Result<SegmentInfo> DecodeSegmentHeader(std::span<const std::byte> bytes) {
  if (bytes.size() < kSegmentHeaderBytes) {
    return Status::DataLoss("trace segment header truncated");
  }
  SegmentInfo seg;
  seg.record_count = LoadU32(bytes.data());
  seg.payload_crc = LoadU32(bytes.data() + 4);
  seg.first_record = LoadU64(bytes.data() + 8);
  return seg;
}

}  // namespace rod::trace::store
