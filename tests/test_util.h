#ifndef SPE_TESTS_TEST_UTIL_H_
#define SPE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "spe/common/rng.h"
#include "spe/data/dataset.h"

namespace spe {
namespace testing {

/// Byte equality of two score vectors: the determinism contract's
/// comparison (no tolerance, and -0.0 differs from 0.0).
inline bool SameBytes(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Two well-separated Gaussian blobs in 2-D: majority at the origin,
/// minority at (4, 4). Linearly separable — any sane classifier should
/// reach near-perfect AUCPRC.
inline Dataset SeparableBlobs(std::size_t num_majority, std::size_t num_minority,
                              std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(2);
  data.Reserve(num_majority + num_minority);
  for (std::size_t i = 0; i < num_majority; ++i) {
    const std::vector<double> row = {rng.Gaussian(0.0, 0.7), rng.Gaussian(0.0, 0.7)};
    data.AddRow(row, 0);
  }
  for (std::size_t i = 0; i < num_minority; ++i) {
    const std::vector<double> row = {rng.Gaussian(4.0, 0.7), rng.Gaussian(4.0, 0.7)};
    data.AddRow(row, 1);
  }
  return data;
}

/// Overlapping imbalanced blobs: minority sits inside the majority cloud
/// with partial separation — the regime where hardness-aware methods
/// should beat blind under-sampling.
inline Dataset OverlappingBlobs(std::size_t num_majority, std::size_t num_minority,
                                std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(2);
  data.Reserve(num_majority + num_minority);
  for (std::size_t i = 0; i < num_majority; ++i) {
    const std::vector<double> row = {rng.Gaussian(0.0, 1.0), rng.Gaussian(0.0, 1.0)};
    data.AddRow(row, 0);
  }
  for (std::size_t i = 0; i < num_minority; ++i) {
    const std::vector<double> row = {rng.Gaussian(1.5, 1.0), rng.Gaussian(1.5, 1.0)};
    data.AddRow(row, 1);
  }
  return data;
}

/// XOR pattern: four tight clusters with alternating labels — not
/// linearly separable, learnable by trees / boosted models.
inline Dataset XorClusters(std::size_t per_cluster, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(2);
  data.Reserve(4 * per_cluster);
  const double centers[4][2] = {{0, 0}, {1, 1}, {0, 1}, {1, 0}};
  for (int c = 0; c < 4; ++c) {
    const int label = c < 2 ? 0 : 1;
    for (std::size_t i = 0; i < per_cluster; ++i) {
      const std::vector<double> row = {rng.Gaussian(centers[c][0], 0.08),
                                       rng.Gaussian(centers[c][1], 0.08)};
      data.AddRow(row, label);
    }
  }
  return data;
}

}  // namespace testing
}  // namespace spe

#endif  // SPE_TESTS_TEST_UTIL_H_
