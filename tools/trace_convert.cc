// trace-convert: builds segmented binary arrival stores (trace/store)
// from the repo's trace interchange forms, inspects them, and verifies
// them. One store file holds one input stream's arrivals; the engine
// replays a set of them through SimulationOptions::replay.
//
//   # Materialize a rate-trace CSV into arrivals and store them
//   $ ./build/tools/trace_convert --csv trace.csv --out trace.rodtrc --seed 7 --duration 60 --self-check
//
//   # Several CSVs -> one store per input stream (out gets .s<k> inserted)
//   $ ./build/tools/trace_convert --csv a.csv --csv b.csv --out run.rodtrc
//
//   # Convert a raw timestamp log (one arrival instant per line)
//   $ ./build/tools/trace_convert --timestamps arrivals.log --out t.rodtrc
//
//   # Inspect / verify an existing store
//   $ ./build/tools/trace_convert --info t.rodtrc
//   $ ./build/tools/trace_convert --verify t.rodtrc
//
// (long invocations shown wrapped; pass them on one line)

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "rod.h"

namespace {

using rod::trace::store::ArrivalRecord;
using rod::trace::store::ReaderOptions;
using rod::trace::store::SegmentReader;
using rod::trace::store::SegmentWriter;
using rod::trace::store::StoreInfo;
using rod::trace::store::WriterOptions;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [inputs] [options]\n"
      "inputs (choose one kind; --csv may repeat, one stream each):\n"
      "  --csv FILE         rate-trace CSV (SaveCsv form); arrivals are\n"
      "                     materialized with the engine's driver\n"
      "  --timestamps FILE  raw arrival-timestamp log, one instant per line\n"
      "  --info STORE       print an existing store's manifest and exit\n"
      "  --verify STORE     full integrity scan of an existing store\n"
      "options:\n"
      "  --out PATH         output store (several streams: .s<k> inserted\n"
      "                     before the extension); required for conversion\n"
      "  --seed S           materialization seed (default 0xdecaf5eed)\n"
      "  --duration D       materialization horizon in seconds (default 60)\n"
      "  --even             evenly spaced arrivals instead of Poisson\n"
      "  --records-per-segment N  segment capacity (default 65536)\n"
      "  --self-check       re-read every written store on both the mmap\n"
      "                     and pread paths and compare to the source\n",
      argv0);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseF64(const char* text, double* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

/// run.rodtrc -> run.s2.rodtrc (stream 2 of a multi-stream conversion).
std::string StreamPath(const std::string& out, size_t k, size_t streams) {
  if (streams == 1) return out;
  const size_t dot = out.rfind('.');
  const std::string tag = ".s" + std::to_string(k);
  if (dot == std::string::npos || dot == 0) return out + tag;
  return out.substr(0, dot) + tag + out.substr(dot);
}

void PrintInfo(const std::string& path, const StoreInfo& info) {
  std::printf("%s\n", path.c_str());
  std::printf("  records            %" PRIu64 "\n", info.total_records);
  std::printf("  segments           %" PRIu64 " x %u records\n",
              info.num_segments, info.records_per_segment);
  std::printf("  streams            %u\n", info.num_streams);
  std::printf("  file bytes         %" PRIu64 "\n", info.file_bytes());
  std::printf("  time span          [%.6f, %.6f] s\n", info.time_lo,
              info.time_hi);
}

/// Writes one stream's arrival instants as a store file.
rod::Status WriteStore(const std::vector<double>& arrivals, uint32_t stream,
                       const std::string& path, const WriterOptions& options) {
  return rod::trace::store::WriteTimestamps(arrivals, stream, path, options);
}

/// Self-check: reopen `path` on the mmap path and the pread path, run the
/// full integrity scan, and compare every record against `expect`.
rod::Status SelfCheck(const std::string& path,
                      const std::vector<double>& expect) {
  for (const bool use_mmap : {true, false}) {
    ReaderOptions opts;
    opts.use_mmap = use_mmap;
    opts.resident_segments = 2;
    auto reader = SegmentReader::Open(path, opts);
    ROD_RETURN_IF_ERROR(reader.status());
    ROD_RETURN_IF_ERROR(reader->VerifyAll());
    rod::trace::store::BatchCursor cursor(&*reader);
    size_t i = 0;
    for (;;) {
      auto span = cursor.NextSpan();
      ROD_RETURN_IF_ERROR(span.status());
      if (span->empty()) break;
      for (const ArrivalRecord& r : *span) {
        if (i >= expect.size() || r.time != expect[i]) {
          return rod::Status::Internal(
              "self-check mismatch at record " + std::to_string(i) +
              " (path " + (use_mmap ? "mmap" : "pread") + ")");
        }
        ++i;
      }
      cursor.Advance(span->size());
    }
    if (i != expect.size()) {
      return rod::Status::Internal(
          "self-check read " + std::to_string(i) + " records, expected " +
          std::to_string(expect.size()));
    }
  }
  return rod::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> csv_paths;
  std::vector<std::string> ts_paths;
  std::vector<std::string> info_paths;
  std::vector<std::string> verify_paths;
  std::string out;
  uint64_t seed = 0xdecaf5eedULL;
  double duration = 60.0;
  bool poisson = true;
  bool self_check = false;
  WriterOptions wopts;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      return ++a < argc ? argv[a] : nullptr;
    };
    if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      csv_paths.push_back(v);
    } else if (arg == "--timestamps") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      ts_paths.push_back(v);
    } else if (arg == "--info") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      info_paths.push_back(v);
    } else if (arg == "--verify") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      verify_paths.push_back(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      out = v;
    } else if (arg == "--seed") {
      if (!ParseU64(next(), &seed)) return Usage(argv[0]);
    } else if (arg == "--duration") {
      if (!ParseF64(next(), &duration) || duration <= 0.0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--even") {
      poisson = false;
    } else if (arg == "--records-per-segment") {
      uint64_t n = 0;
      if (!ParseU64(next(), &n) || n == 0 || n > UINT32_MAX) {
        return Usage(argv[0]);
      }
      wopts.records_per_segment = static_cast<uint32_t>(n);
    } else if (arg == "--self-check") {
      self_check = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  // Inspection modes need no output path and run before any conversion.
  for (const std::string& path : info_paths) {
    auto reader = SegmentReader::Open(path);
    if (!reader.ok()) {
      std::fprintf(stderr, "error: %s\n", reader.status().ToString().c_str());
      return 1;
    }
    PrintInfo(path, reader->info());
  }
  for (const std::string& path : verify_paths) {
    auto reader = SegmentReader::Open(path);
    rod::Status status =
        reader.ok() ? reader->VerifyAll() : reader.status();
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("OK   %s (%" PRIu64 " records, %" PRIu64 " segments)\n",
                path.c_str(), reader->info().total_records,
                reader->info().num_segments);
  }

  const bool converting = !csv_paths.empty() || !ts_paths.empty();
  if (!converting) {
    if (info_paths.empty() && verify_paths.empty()) return Usage(argv[0]);
    return 0;
  }
  if (!csv_paths.empty() && !ts_paths.empty()) {
    std::fprintf(stderr, "mix of --csv and --timestamps; pick one kind\n");
    return Usage(argv[0]);
  }
  if (out.empty()) {
    std::fprintf(stderr, "conversion needs --out\n");
    return Usage(argv[0]);
  }

  // Gather one arrival vector per stream.
  std::vector<std::vector<double>> streams;
  if (!csv_paths.empty()) {
    std::vector<rod::trace::RateTrace> traces;
    for (const std::string& path : csv_paths) {
      auto trace = rod::trace::LoadCsv(path);
      if (!trace.ok()) {
        std::fprintf(stderr, "error loading '%s': %s\n", path.c_str(),
                     trace.status().ToString().c_str());
        return 1;
      }
      traces.push_back(std::move(*trace));
    }
    streams = rod::sim::MaterializeArrivals(traces, poisson, seed, duration);
  } else {
    for (const std::string& path : ts_paths) {
      auto ts = rod::trace::LoadTimestampLog(path);
      if (!ts.ok()) {
        std::fprintf(stderr, "error loading '%s': %s\n", path.c_str(),
                     ts.status().ToString().c_str());
        return 1;
      }
      streams.push_back(std::move(*ts));
    }
  }

  for (size_t k = 0; k < streams.size(); ++k) {
    const std::string path = StreamPath(out, k, streams.size());
    const rod::Status written =
        WriteStore(streams[k], static_cast<uint32_t>(k), path, wopts);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing '%s': %s\n", path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    if (self_check) {
      const rod::Status checked = SelfCheck(path, streams[k]);
      if (!checked.ok()) {
        std::fprintf(stderr, "self-check failed for '%s': %s\n", path.c_str(),
                     checked.ToString().c_str());
        return 1;
      }
    }
    auto reader = SegmentReader::Open(path);
    if (!reader.ok()) {
      std::fprintf(stderr, "error reopening '%s': %s\n", path.c_str(),
                   reader.status().ToString().c_str());
      return 1;
    }
    PrintInfo(path, reader->info());
    if (self_check) std::printf("  self-check       OK (mmap + pread)\n");
  }
  return 0;
}
