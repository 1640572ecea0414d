// rod-trace-merge: merges per-process Chrome trace dumps (written by
// rod_coordinator --trace and rod_worker --trace) into one trace on the
// coordinator clock. Each input dump carries its coordinator-estimated
// clock offset in its top-level "rod" metadata; the merge rebases every
// timestamp by that offset and gives each process its own named row, so
// a kill-9 incident reads as a single aligned timeline in
// chrome://tracing / Perfetto.
//
//   $ ./build/tools/rod_trace_merge -o merged.json coordinator.trace.json w0.trace.json w1.trace.json

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/trace_merge.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-o OUTPUT] TRACE.json [TRACE.json ...]\n"
               "Merges per-process Chrome trace dumps onto the\n"
               "coordinator clock (default output: stdout).\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 ||
        std::strcmp(argv[i], "--output") == 0) {
      if (i + 1 >= argc) return Usage(argv[0]);
      output_path = argv[++i];
    } else if (std::strcmp(argv[i], "-h") == 0 ||
               std::strcmp(argv[i], "--help") == 0) {
      return Usage(argv[0]);
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  if (inputs.empty()) return Usage(argv[0]);

  std::vector<rod::telemetry::TraceDump> dumps;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "rod_trace_merge: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    // Strip any directory prefix for the fallback row label.
    const size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    auto dump = rod::telemetry::ParseChromeTraceDump(text, base);
    if (!dump.ok()) {
      std::fprintf(stderr, "rod_trace_merge: %s: %s\n", path.c_str(),
                   dump.status().ToString().c_str());
      return 1;
    }
    dumps.push_back(std::move(dump.value()));
  }

  rod::Status merged;
  if (output_path.empty()) {
    merged = rod::telemetry::MergeChromeTraces(dumps, std::cout);
  } else {
    std::ofstream out(output_path);
    if (!out) {
      std::fprintf(stderr, "rod_trace_merge: cannot write %s\n",
                   output_path.c_str());
      return 1;
    }
    merged = rod::telemetry::MergeChromeTraces(dumps, out);
  }
  if (!merged.ok()) {
    std::fprintf(stderr, "rod_trace_merge: %s\n", merged.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "rod_trace_merge: merged %zu dumps%s%s\n",
               dumps.size(), output_path.empty() ? "" : " into ",
               output_path.c_str());
  return 0;
}
