// The width-4 instances of ROD's candidate scan (placement/rod_scan.h).
// This translation unit is compiled with -mavx2 (see src/CMakeLists.txt);
// rod.cc enters it only when geom::SimdKernelEnabled() says the CPU has
// AVX2. It exports these two functions and nothing else: the templates
// they instantiate have internal linkage.

#include "placement/rod_scan.h"

#ifdef ROD_HAVE_AVX2_KERNEL

namespace rod::place {

ScanFloors ScanPassAvx2(const ScanArgs& args) { return ScanPass<4>(args); }

size_t ScanReachAvx2(size_t stride, const int64_t* member, const double* hi,
                     double floor, size_t* last) {
  return ScanReach<4>(stride, member, hi, floor, last);
}

}  // namespace rod::place

#endif  // ROD_HAVE_AVX2_KERNEL
