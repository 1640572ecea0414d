#include "geometry/simd_kernel.h"

#include <atomic>
#include <cstdlib>

namespace rod::geom {

namespace {

bool CpuHasAvx2() {
#if defined(ROD_HAVE_AVX2_KERNEL) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool DisabledByEnv() {
  const char* v = std::getenv("ROD_DISABLE_SIMD");
  return v != nullptr && v[0] != '\0';
}

std::atomic<bool>& EnabledFlag() {
  // Initialized once from the environment; SetSimdKernelEnabled overrides.
  static std::atomic<bool> enabled{!DisabledByEnv()};
  return enabled;
}

}  // namespace

bool SimdKernelAvailable() {
  static const bool available = CpuHasAvx2();
  return available;
}

bool SimdKernelEnabled() {
  return SimdKernelAvailable() && EnabledFlag().load(std::memory_order_relaxed);
}

void SetSimdKernelEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

const char* ActiveSimdIsa() { return SimdKernelEnabled() ? "avx2" : "scalar"; }

#ifndef ROD_HAVE_AVX2_KERNEL
// Link stub for builds without the AVX2 translation unit; never reached
// because SimdKernelAvailable() is false on such builds.
size_t CountContainedAvx2(const double*, const double*, size_t, size_t,
                          const double*, size_t, size_t begin, size_t,
                          const double*, double, double, double*,
                          size_t* tail_begin) {
  *tail_begin = begin;
  return 0;
}
#endif

}  // namespace rod::geom
