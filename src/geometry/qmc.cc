#include "geometry/qmc.h"

namespace rod::geom {

std::vector<uint32_t> FirstPrimes(size_t count) {
  std::vector<uint32_t> primes;
  primes.reserve(count);
  uint32_t candidate = 2;
  while (primes.size() < count) {
    bool is_prime = true;
    for (uint32_t p : primes) {
      if (p * p > candidate) break;
      if (candidate % p == 0) {
        is_prime = false;
        break;
      }
    }
    if (is_prime) primes.push_back(candidate);
    ++candidate;
  }
  return primes;
}

}  // namespace rod::geom
