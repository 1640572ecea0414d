// rod-worker: one cluster worker process. Dials the coordinator on
// loopback, registers, and hosts whatever operator partition the shipped
// plan assigns to it until the coordinator orders shutdown (or dies).
//
//   $ ./build/tools/rod_worker --coordinator 7341
//   $ ./build/tools/rod_worker --coordinator 7341 --capacity 0.5 --http-port 9101 --name rack1-w0
//
// The process serves its own observability plane (/metrics, /healthz,
// /readyz, /flightrecorder) unless --no-http is given.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

#include "rod.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --coordinator PORT [options]\n"
      "options:\n"
      "  --coordinator PORT  coordinator control port on 127.0.0.1 (required)\n"
      "  --data-port PORT    peer tuple listen port (default: ephemeral)\n"
      "  --http-port PORT    observability plane port (default: ephemeral)\n"
      "  --no-http           do not serve the observability plane\n"
      "  --capacity C        advertised CPU capacity (default 1.0)\n"
      "  --name NAME         diagnostic label (default worker-<pid>)\n"
      "  --connect-timeout S give up dialing after S seconds (default 10)\n"
      "  --trace PATH        dump this process's Chrome trace on exit\n"
      "                      (merge with rod_trace_merge)\n",
      argv0);
  return 2;
}

bool ParseU16(const char* text, uint16_t* out) {
  if (text == nullptr) return false;
  unsigned value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value > 65535) return false;
  *out = static_cast<uint16_t>(value);
  return true;
}

bool ParseF64(const char* text, double* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  rod::cluster::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--coordinator") == 0) {
      if (!ParseU16(value, &options.coordinator_port)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--data-port") == 0) {
      if (!ParseU16(value, &options.data_port)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--http-port") == 0) {
      if (!ParseU16(value, &options.http_port)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--no-http") == 0) {
      options.serve_http = false;
    } else if (std::strcmp(arg, "--capacity") == 0) {
      if (!ParseF64(value, &options.capacity)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--name") == 0) {
      if (value == nullptr) return Usage(argv[0]);
      options.name = value;
      ++i;
    } else if (std::strcmp(arg, "--connect-timeout") == 0) {
      if (!ParseF64(value, &options.connect_timeout)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (value == nullptr) return Usage(argv[0]);
      options.trace_path = value;
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.coordinator_port == 0) return Usage(argv[0]);

  rod::cluster::Worker worker(std::move(options));
  const rod::Status status = worker.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "rod_worker: %s\n", status.ToString().c_str());
    return 1;
  }
  const rod::cluster::WorkerCounters c =
      rod::cluster::CountersFromSnapshot(worker.telemetry().Snapshot());
  std::fprintf(stderr,
               "rod_worker %u done: generated=%llu processed=%llu "
               "delivered=%llu shipped=%llu received=%llu lost=%llu\n",
               worker.worker_id(),
               static_cast<unsigned long long>(c.generated),
               static_cast<unsigned long long>(c.processed),
               static_cast<unsigned long long>(c.delivered),
               static_cast<unsigned long long>(c.shipped),
               static_cast<unsigned long long>(c.received),
               static_cast<unsigned long long>(c.lost_tuples));
  return 0;
}
