#ifndef SPE_COMMON_RNG_H_
#define SPE_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "spe/common/check.h"

namespace spe {

/// Seeded random number generator used everywhere in the library.
///
/// Every stochastic component (re-samplers, ensemble trainers, synthetic
/// data generators) takes an explicit `Rng&` or seed so experiments are
/// reproducible run-to-run: the paper reports mean ± std over 10
/// independent runs, which we reproduce by varying only the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t Index(std::size_t n) {
    SPE_CHECK_GT(n, 0u);
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Standard normal draw.
  double Gaussian() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Derives an independent child generator; lets one experiment seed
  /// spawn per-model / per-iteration streams without correlation.
  Rng Fork() { return Rng(engine_()); }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  /// `count` distinct indices sampled uniformly from [0, n) without
  /// replacement. Requires count <= n. The result owns storage for
  /// exactly `count` entries.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n, std::size_t count) {
    SPE_CHECK_LE(count, n);
    // Partial Fisher-Yates: O(count) swaps on a transient pool of n
    // slots; fine at the dataset sizes this library targets.
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t j = i + Index(n - i);
      std::swap(pool[i], pool[j]);
    }
    if (count == n) return pool;
    // Copied out rather than resized: a resized pool would keep all n
    // slots' capacity for as long as the caller holds the picks.
    return std::vector<std::size_t>(pool.begin(), pool.begin() + count);
  }

  /// `count` indices sampled uniformly from [0, n) with replacement.
  std::vector<std::size_t> SampleWithReplacement(std::size_t n, std::size_t count) {
    std::vector<std::size_t> out(count);
    for (auto& v : out) v = Index(n);
    return out;
  }

  /// Access to the raw engine for std distributions not wrapped above.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace spe

#endif  // SPE_COMMON_RNG_H_
