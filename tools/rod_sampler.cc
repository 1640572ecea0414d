// Copyright (c) the ROD reproduction authors.
//
// rod_sampler: a sampling CPU profiler for hosts without perf, loaded
// into any program with LD_PRELOAD. tools/rod_profile.py turns its output
// into a per-function report:
//
//   LD_PRELOAD=build/tools/librod_sampler.so build/bench/bench_chaos
//   python3 tools/rod_profile.py rod_sampler.*.out
//
// At load it arms ITIMER_PROF, which ticks every kIntervalUs of CPU time
// the process spends in any of its threads. The SIGPROF handler stores
// the interrupted program counter in a fixed array (no allocation, no
// lock: one atomic increment). At exit it writes
// rod_sampler.<pid>.out in the working directory: the loaded modules,
// each with its load base and address ranges from dl_iterate_phdr, then
// one line per sample. A child that inherits LD_PRELOAD (rodbench's
// workers) writes its own file.
//
// Samples past kMaxSamples are counted, not kept. A program that ends
// in _exit, or by a signal, writes nothing. Not built with ROD_SANITIZE:
// the sanitizer runtimes must be the first library loaded.

#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr long kIntervalUs = 1000;
constexpr size_t kMaxSamples = size_t{1} << 20;  // 8 MiB of PCs.

uintptr_t g_pcs[kMaxSamples];
std::atomic<size_t> g_count{0};
std::atomic<bool> g_running{false};

uintptr_t InterruptedPc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void OnProf(int, siginfo_t*, void* context) {
  if (!g_running.load(std::memory_order_relaxed)) return;
  const size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = InterruptedPc(context);
}

void SetTimer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void StartSampler() {
  struct sigaction action {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  g_running.store(true, std::memory_order_relaxed);
  SetTimer(kIntervalUs);
}

/// Writes one "module" line per loaded object: the range its executable
/// segments cover at run time, its load base and its path.
int WriteModule(dl_phdr_info* info, size_t, void* data) {
  auto* out = static_cast<FILE*>(data);
  char exe[PATH_MAX];
  const char* path = info->dlpi_name;
  if (path == nullptr || path[0] == '\0') {
    // The main program: dl_iterate_phdr gives it no name.
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) return 0;
    exe[len] = '\0';
    path = exe;
  }
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const uintptr_t start = info->dlpi_addr + ph.p_vaddr;
    std::fprintf(out, "module %#lx %#lx %#lx %s\n",
                 static_cast<unsigned long>(start),
                 static_cast<unsigned long>(start + ph.p_memsz),
                 static_cast<unsigned long>(info->dlpi_addr), path);
  }
  return 0;
}

__attribute__((destructor)) void StopSampler() {
  if (!g_running.exchange(false)) return;
  SetTimer(0);
  char name[64];
  std::snprintf(name, sizeof(name), "rod_sampler.%ld.out",
                static_cast<long>(getpid()));
  FILE* out = std::fopen(name, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "rod_sampler: cannot write %s: %s\n", name,
                 std::strerror(errno));
    return;
  }
  const size_t taken = g_count.load();
  const size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  std::fprintf(out, "rod_sampler 1 interval_us=%ld samples=%zu dropped=%zu\n",
               kIntervalUs, kept, taken - kept);
  dl_iterate_phdr(WriteModule, out);
  for (size_t i = 0; i < kept; ++i) {
    std::fprintf(out, "pc %#lx\n", static_cast<unsigned long>(g_pcs[i]));
  }
  std::fclose(out);
}

}  // namespace
