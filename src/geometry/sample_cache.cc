#include "geometry/sample_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/random.h"
#include "common/thread_pool.h"
#include "geometry/qmc.h"
#include "geometry/simd_kernel.h"

namespace rod::geom {

namespace {

/// Samples per generation chunk: a chunk converts its first Halton index
/// to digits once and steps from there, and ParallelFor balances the set
/// over the shared pool in chunks of this size.
constexpr size_t kGenerateGrain = 1024;

/// Halton index of sample 0: skips the sequence's early, highly
/// correlated prefix (every cached Halton set has always started here).
constexpr uint64_t kHaltonStart = 32;

/// Digit slots per axis in a chunk's odometer: enough for any 64-bit
/// index in base 2.
constexpr size_t kMaxDigits = 64;

/// Entries of the largest low-digit table (HaltonAxis::low_sum), 8 KiB:
/// base 2's table covers 10 of the 16 digits of a 2^15-sample set's
/// indices, and a 10-dim set's tables still fit in L2.
constexpr uint64_t kMaxLowSpan = 1024;

uint64_t MixHash(uint64_t h, uint64_t v) {
  // Boost-style combine over 64-bit lanes.
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// One Halton axis. A coordinate is the radical inverse of the index: the
/// sum of digit_j * frac[j] over the index's base-b digits, added from 0.0
/// in ascending digit order, with frac[0] = 1/b and frac[j+1] =
/// frac[j] * (1/b). A radical inverse computed one index at a time (the
/// per-point path, kept as the test oracle) forms the same products in
/// the same order, so every term and every partial sum here is the same
/// double. Positions above the index's highest non-zero digit add an
/// exact +0.0.
///
/// The low `low_digits` digits form one counter in [0, low_span); their
/// partial sum (the first low_digits steps of that addition) is a table
/// lookup, and only the higher digits are added term by term.
struct HaltonAxis {
  uint32_t base = 0;
  std::vector<double> frac;     ///< One per digit of the largest index.
  size_t low_digits = 0;
  uint32_t low_span = 1;        ///< base^low_digits
  std::vector<double> low_sum;  ///< [v]: partial sum of v's low digits.
};

std::vector<HaltonAxis> MakeHaltonAxes(size_t dims, uint64_t last_index) {
  const std::vector<uint32_t> primes = FirstPrimes(dims);
  std::vector<HaltonAxis> axes(dims);
  for (size_t k = 0; k < dims; ++k) {
    HaltonAxis& axis = axes[k];
    axis.base = primes[k];
    const double inv_base = 1.0 / static_cast<double>(axis.base);
    double frac = inv_base;
    for (uint64_t rest = last_index; rest > 0; rest /= axis.base) {
      axis.frac.push_back(frac);
      frac *= inv_base;
    }
    // low_sum over j+1 digits extends the table over j digits: block
    // `top` adds top * frac[j] to the sum of the lower digits (block 0
    // adds 0.0, leaving the j-digit table as its prefix).
    axis.low_sum.assign(1, 0.0);
    while (axis.low_digits < axis.frac.size() &&
           uint64_t{axis.low_span} * axis.base <= kMaxLowSpan) {
      const double f = axis.frac[axis.low_digits];
      axis.low_sum.resize(size_t{axis.low_span} * axis.base);
      for (uint32_t top = 1; top < axis.base; ++top) {
        for (uint32_t v = 0; v < axis.low_span; ++v) {
          axis.low_sum[top * axis.low_span + v] =
              axis.low_sum[v] + static_cast<double>(top) * f;
        }
      }
      axis.low_span *= axis.base;
      ++axis.low_digits;
    }
  }
  return axes;
}

/// The Cranley–Patterson shift of `key` (empty when unshifted).
/// Replication r = shift_index - 1 consumes draws [r*d, (r+1)*d) of the
/// shift stream, exactly as the sequential estimator drew them when it
/// ran replications 0..r in order — so the shift for a given
/// (shift_seed, shift_index) never depends on which replications were
/// generated before it.
Vector CranleyPattersonShift(const SimplexSampleKey& key) {
  if (key.shift_index == 0) return {};
  Rng shift_rng(key.shift_seed);
  Vector shift(key.dims);
  for (uint64_t rep = 0; rep < key.shift_index; ++rep) {
    for (double& v : shift) v = shift_rng.NextDouble();
  }
  return shift;
}

/// Comparators (a, b), a < b, of Batcher's odd-even merge sort for `d`
/// keys: the network for the next power of two without the comparators
/// that touch a position >= d (padding those positions with +inf makes
/// each of them a no-op). Its branch-free min/max exchanges sort a
/// point's coordinates without an insertion sort's mispredicted branches
/// (a single-threaded 10-dim set generated about 1.8x faster than with
/// std::sort on a 4-vCPU Xeon VM).
using SortingNetwork = std::vector<std::pair<uint32_t, uint32_t>>;

SortingNetwork MakeSortingNetwork(size_t d) {
  SortingNetwork network;
  size_t n = 1;
  while (n < d) n *= 2;
  for (size_t p = 1; p < n; p *= 2) {
    for (size_t k = p; k >= 1; k /= 2) {
      for (size_t j = k % p; j + k < n; j += 2 * k) {
        for (size_t i = 0; i < std::min(k, n - j - k); ++i) {
          const size_t a = i + j, b = i + j + k;
          if (a / (2 * p) == b / (2 * p) && b < d) {
            network.emplace_back(static_cast<uint32_t>(a),
                                 static_cast<uint32_t>(b));
          }
        }
      }
    }
  }
  return network;
}

/// Maps the unit-cube point p[0, d) onto the solid simplex
/// `{x >= 0, sum x <= 1}` in place. Sorted uniforms u_(1) <= ... <= u_(d)
/// have spacings (u_(1)-0, u_(2)-u_(1), ..., u_(d)-u_(d-1)) distributed
/// uniformly over the solid simplex {x >= 0, sum x = u_(d) <= 1}: the sort
/// has density d! on the ordered region and the difference map is
/// unimodular. The coordinates are non-negative, non-NaN doubles, so
/// their sorted sequence is the same bit for bit whichever sort yields it.
void MapToSimplexInPlace(const SortingNetwork& network, double* p,
                         size_t d) {
  for (const auto& [a, b] : network) {
    const double lo = std::min(p[a], p[b]);
    const double hi = std::max(p[a], p[b]);
    p[a] = lo;
    p[b] = hi;
  }
  double prev = 0.0;
  for (size_t k = 0; k < d; ++k) {
    const double cur = p[k];
    p[k] = cur - prev;
    prev = cur;
  }
}

/// Copies point s, finished in its matrix row, into the SIMD lanes.
void StoreLanes(SimplexSampleSet& set, size_t s) {
  const std::span<const double> row = set.samples.Row(s);
  for (size_t k = 0; k < row.size(); ++k) {
    set.lanes[k * set.lane_stride + s] = row[k];
  }
}

/// Halton points [begin, end) of `set`, each built in its matrix row. The
/// chunk converts its first index once per axis into the low counter and
/// the high digits (the only divisions); each later index steps that
/// odometer.
void GenerateHaltonRange(const std::vector<HaltonAxis>& axes,
                         const Vector& shift, const SortingNetwork& network,
                         SimplexSampleSet& set, size_t begin, size_t end) {
  const size_t d = axes.size();
  std::vector<uint32_t> low(d);
  std::vector<uint32_t> digits(d * kMaxDigits, 0);
  for (size_t k = 0; k < d; ++k) {
    const HaltonAxis& axis = axes[k];
    const uint64_t index = kHaltonStart + begin;
    low[k] = static_cast<uint32_t>(index % axis.low_span);
    uint32_t* digit = &digits[k * kMaxDigits];
    uint64_t high = index / axis.low_span;
    for (size_t j = axis.low_digits; high > 0; ++j, high /= axis.base) {
      digit[j] = static_cast<uint32_t>(high % axis.base);
    }
  }
  for (size_t s = begin; s < end; ++s) {
    double* p = set.samples.Row(s).data();
    for (size_t k = 0; k < d; ++k) {
      const HaltonAxis& axis = axes[k];
      uint32_t* digit = &digits[k * kMaxDigits];
      double x = axis.low_sum[low[k]];
      for (size_t j = axis.low_digits; j < axis.frac.size(); ++j) {
        x += static_cast<double>(digit[j]) * axis.frac[j];
      }
      if (!shift.empty()) {
        x += shift[k];
        if (x >= 1.0) x -= 1.0;
      }
      p[k] = x;
      // Odometer: index + 1, carrying out of the low counter into the
      // high digits.
      if (++low[k] == axis.low_span) {
        low[k] = 0;
        for (size_t j = axis.low_digits; ++digit[j] == axis.base; ++j) {
          digit[j] = 0;
        }
      }
    }
    MapToSimplexInPlace(network, p, d);
    StoreLanes(set, s);
  }
}

}  // namespace

Matrix SampleMatrix::ToMatrix() const {
  Matrix out(rows_, cols_);
  for (size_t s = 0; s < rows_; ++s) {
    std::copy(Row(s).begin(), Row(s).end(), out.Row(s).begin());
  }
  return out;
}

Matrix GenerateSimplexSamples(const SimplexSampleKey& key) {
  return GenerateSimplexSampleSet(key).samples.ToMatrix();
}

SimplexSampleSet GenerateSimplexSampleSet(const SimplexSampleKey& key) {
  assert(key.dims > 0 && key.num_samples > 0);
  const size_t d = key.dims;
  SimplexSampleSet set;
  // Neither buffer is filled here: the points below are their first
  // touch, chunk by chunk on the pool for Halton sets.
  set.samples = SampleMatrix(key.num_samples, d);
  set.lane_stride =
      (key.num_samples + kSimdGroup - 1) / kSimdGroup * kSimdGroup;
  set.lanes.resize(set.lane_stride * d);
  for (size_t k = 0; k < d; ++k) {
    for (size_t s = key.num_samples; s < set.lane_stride; ++s) {
      set.lanes[k * set.lane_stride + s] = 0.0;
    }
  }
  const SortingNetwork network = MakeSortingNetwork(d);
  if (key.pseudo_random) {
    // One sequential xoshiro stream: point s takes draws [s*d, (s+1)*d).
    Rng rng(key.seed);
    for (size_t s = 0; s < key.num_samples; ++s) {
      double* p = set.samples.Row(s).data();
      for (size_t k = 0; k < d; ++k) p[k] = rng.NextDouble();
      MapToSimplexInPlace(network, p, d);
      StoreLanes(set, s);
    }
    return set;
  }
  // Halton sets are chunked over the shared pool (inline when called from
  // a pool worker). Chunks write disjoint rows and lane columns, and a
  // point depends only on its index, so the bytes are the same for every
  // chunk-to-thread mapping.
  const std::vector<HaltonAxis> axes =
      MakeHaltonAxes(d, kHaltonStart + key.num_samples - 1);
  const Vector shift = CranleyPattersonShift(key);
  ParallelFor(ThreadPool::Shared().num_threads(), key.num_samples,
              kGenerateGrain, [&](size_t, size_t begin, size_t end) {
                GenerateHaltonRange(axes, shift, network, set, begin, end);
              });
  return set;
}

size_t SimplexSampleCache::KeyHash::operator()(
    const SimplexSampleKey& key) const {
  uint64_t h = 0x243f6a8885a308d3ULL;
  h = MixHash(h, key.dims);
  h = MixHash(h, key.num_samples);
  h = MixHash(h, key.pseudo_random ? 1 : 0);
  h = MixHash(h, key.seed);
  h = MixHash(h, key.shift_index);
  h = MixHash(h, key.shift_seed);
  return static_cast<size_t>(h);
}

SimplexSampleCache::SimplexSampleCache(size_t max_entries)
    : max_entries_(std::max<size_t>(max_entries, 1)) {}

std::shared_ptr<const SimplexSampleSet> SimplexSampleCache::Get(
    const SimplexSampleKey& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  auto matrix =
      std::make_shared<const SimplexSampleSet>(GenerateSimplexSampleSet(key));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(key, matrix);
  if (!inserted) return it->second;  // lost a generation race; use winner
  insertion_order_.push_back(key);
  while (entries_.size() > max_entries_) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
  return matrix;
}

size_t SimplexSampleCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

size_t SimplexSampleCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t SimplexSampleCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void SimplexSampleCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  insertion_order_.clear();
  hits_ = 0;
  misses_ = 0;
}

SimplexSampleCache& SimplexSampleCache::Global() {
  static SimplexSampleCache cache;
  return cache;
}

}  // namespace rod::geom
