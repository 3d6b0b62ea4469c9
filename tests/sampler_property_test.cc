// Cross-sampler property sweeps: invariants every re-sampling method
// must satisfy on arbitrary numeric data, parameterized over
// (sampler, seed). Complements the per-method behavioural tests in
// sampling_test.cc.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/check.h"
#include "spe/core/hardness.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/sampling/sampler_factory.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

class SamplerPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  static Dataset MakeData(int seed) {
    return OverlappingBlobs(250, 30, static_cast<std::uint64_t>(seed));
  }
};

// Encodes a row (features + label) for set membership checks.
std::vector<double> RowKey(const Dataset& data, std::size_t i) {
  std::vector<double> key(data.num_features() + 1);
  data.CopyRowTo(i, std::span<double>(key.data(), data.num_features()));
  key[data.num_features()] = static_cast<double>(data.Label(i));
  return key;
}

TEST_P(SamplerPropertyTest, OutputIsNonEmptyWithBothClasses) {
  const auto& [name, seed] = GetParam();
  const Dataset data = MakeData(seed);
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  const Dataset out = MakeSampler(name)->Resample(data, rng);
  EXPECT_GT(out.CountPositives(), 0u) << name;
  EXPECT_GT(out.CountNegatives(), 0u) << name;
  EXPECT_EQ(out.num_features(), data.num_features());
}

TEST_P(SamplerPropertyTest, MinorityClassIsNeverShrunk) {
  // Every method in this library either keeps or grows the minority.
  const auto& [name, seed] = GetParam();
  const Dataset data = MakeData(seed);
  Rng rng(static_cast<std::uint64_t>(seed) + 2000);
  const Dataset out = MakeSampler(name)->Resample(data, rng);
  EXPECT_GE(out.CountPositives(), data.CountPositives()) << name;
}

TEST_P(SamplerPropertyTest, UnderSamplersOnlySelectExistingRows) {
  const auto& [name, seed] = GetParam();
  // ClusterCentroids is the one prototype-*generating* under-sampler:
  // it replaces the majority with synthetic k-means centroids by design.
  if (name == "ClusterCentroids") GTEST_SKIP();
  const Dataset data = MakeData(seed);
  Rng rng(static_cast<std::uint64_t>(seed) + 3000);
  const Dataset out = MakeSampler(name)->Resample(data, rng);
  if (out.num_rows() > data.num_rows()) return;  // over/hybrid sampler

  std::set<std::vector<double>> originals;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    originals.insert(RowKey(data, i));
  }
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_TRUE(originals.count(RowKey(out, i)))
        << name << " fabricated a row";
  }
}

TEST_P(SamplerPropertyTest, SyntheticRowsAreAlwaysMinority) {
  // Over-samplers may invent rows, but only positive ones.
  // (ClusterCentroids intentionally synthesizes majority prototypes.)
  const auto& [name, seed] = GetParam();
  if (name == "ClusterCentroids") GTEST_SKIP();
  const Dataset data = MakeData(seed);
  Rng rng(static_cast<std::uint64_t>(seed) + 4000);
  const Dataset out = MakeSampler(name)->Resample(data, rng);

  std::set<std::vector<double>> originals;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    originals.insert(RowKey(data, i));
  }
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    if (!originals.count(RowKey(out, i))) {
      EXPECT_EQ(out.Label(i), 1) << name << " fabricated a majority row";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplersAcrossSeeds, SamplerPropertyTest,
    ::testing::Combine(::testing::ValuesIn(KnownSamplerNames()),
                       ::testing::Values(1, 2, 3)));

// ------------------- SelfPacedUnderSample quota properties -------------
//
// The bin quotas of Algorithm 1 lines 7-9 must account for every
// requested sample: exactly target_count distinct indices come back, and
// no bin is asked for more rows than it holds (the deficit of a
// saturated bin is redrawn from the remaining pool instead).

struct QuotaCase {
  std::uint64_t seed;
  std::size_t n;            // majority pool size
  std::size_t num_bins;
  std::size_t target;
  double alpha;
  bool all_trivial;  // hardness identically zero (degenerate bin weights)
};

class SelfPacedQuotaPropertyTest
    : public ::testing::TestWithParam<QuotaCase> {};

TEST_P(SelfPacedQuotaPropertyTest, QuotasSumExactlyAndStayWithinBins) {
  const QuotaCase& c = GetParam();
  std::vector<double> hardness(c.n, 0.0);
  if (!c.all_trivial) {
    Rng gen(c.seed);
    // Skewed mixture so some bins are tiny and saturate.
    for (double& h : hardness) {
      h = gen.Uniform() < 0.9 ? gen.Uniform(0.0, 0.1) : gen.Uniform(0.1, 1.0);
    }
  }

  Rng rng(c.seed + 100);
  const auto pick =
      SelfPacedUnderSample(hardness, c.alpha, c.num_bins, c.target, rng);

  // Exactly min(target, n) distinct, in-range indices.
  EXPECT_EQ(pick.size(), std::min(c.target, c.n));
  std::set<std::size_t> unique(pick.begin(), pick.end());
  EXPECT_EQ(unique.size(), pick.size());
  for (std::size_t i : pick) EXPECT_LT(i, c.n);

  // Per-bin draw never exceeds the bin's population (recomputed through
  // the same binning the sampler uses).
  const HardnessBins bins = ComputeHardnessBins(hardness, c.num_bins);
  std::vector<std::size_t> drawn(c.num_bins, 0);
  for (std::size_t i : pick) {
    ++drawn[HardnessBinIndex(hardness[i], bins.min, bins.max, c.num_bins)];
  }
  for (std::size_t b = 0; b < c.num_bins; ++b) {
    EXPECT_LE(drawn[b], bins.population[b]) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedCases, SelfPacedQuotaPropertyTest,
    ::testing::Values(
        QuotaCase{1, 1000, 20, 137, 0.0, false},
        QuotaCase{2, 1000, 20, 137, 1.3, false},
        QuotaCase{3, 777, 10, 700, 5.0, false},   // near-full draw
        QuotaCase{4, 333, 50, 333, 0.0, false},   // target == pool
        QuotaCase{5, 512, 5, 40, 1e9, false},     // quasi-infinite alpha
        QuotaCase{6, 512, 5, 40,
                  std::numeric_limits<double>::infinity(), false},
        QuotaCase{7, 400, 20, 100, 0.0, true},    // alpha=0, all-zero
        QuotaCase{8, 400, 20, 100, 2.0, true},    // hardness: degenerate
        QuotaCase{9, 64, 20, 200, 0.7, false}));  // target > pool

// ------------------- SelfPacedUnderSample exactness oracle -------------
//
// The sampler runs its per-bin draws in one 4-byte table. This is the
// algorithm it replaced, kept verbatim apart from computing each sample's
// bin inline: per-bin member lists, one Rng::SampleWithoutReplacement
// per bin. The two must agree on the picks (order included), the
// reported bin quotas and the Rng state afterwards, so training stays
// bit-identical to the authors' released algorithm.

std::vector<std::size_t> ReferenceSelfPacedUnderSample(
    std::span<const double> majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out) {
  bin_population_out->clear();
  const std::size_t n = majority_hardness.size();
  if (target_count >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  const HardnessBins bins = ComputeHardnessBins(majority_hardness, num_bins);
  const double range = bins.max - bins.min;
  std::vector<std::vector<std::size_t>> members(num_bins);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t bin = 0;
    if (range > 0.0) {
      const double normalized = (majority_hardness[i] - bins.min) / range;
      bin = static_cast<std::size_t>(normalized *
                                     static_cast<double>(num_bins));
      if (bin >= num_bins) bin = num_bins - 1;
    }
    members[bin].push_back(i);
  }

  std::vector<double> weight(num_bins, 0.0);
  double weight_sum = 0.0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (bins.population[b] == 0) continue;
    if (std::isinf(alpha)) {
      weight[b] = 1.0;
    } else if (bins.mean_hardness[b] + alpha > 0.0) {
      weight[b] = 1.0 / (bins.mean_hardness[b] + alpha);
    }
    weight_sum += weight[b];
  }
  if (weight_sum <= 0.0) return rng.SampleWithoutReplacement(n, target_count);

  std::vector<std::size_t> quota(num_bins, 0);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (bins.population[b] == 0) continue;
    const double share =
        weight[b] / weight_sum * static_cast<double>(target_count);
    quota[b] = std::min(static_cast<std::size_t>(share), members[b].size());
    assigned += quota[b];
    if (quota[b] < members[b].size()) {
      remainder.emplace_back(share - std::floor(share), b);
    }
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  while (assigned < target_count) {
    bool progressed = false;
    for (auto& [frac, b] : remainder) {
      if (assigned >= target_count) break;
      if (quota[b] >= members[b].size()) continue;
      ++quota[b];
      ++assigned;
      progressed = true;
    }
    SPE_CHECK(progressed) << "apportionment stuck";
  }
  bin_population_out->assign(quota.begin(), quota.end());
  std::vector<std::size_t> selected;
  for (std::size_t b = 0; b < num_bins; ++b) {
    for (std::size_t pick :
         rng.SampleWithoutReplacement(members[b].size(), quota[b])) {
      selected.push_back(members[b][pick]);
    }
  }
  return selected;
}

// Hardness shapes of the grid, each stressing one part of the binning:
// the all-zero shape sends alpha = 0 to the random fallback, the
// constant one collapses to one bin, the tied one puts many samples on
// the maximum (the clamped top bin).
std::vector<double> OracleHardness(int shape, std::size_t n, Rng& gen) {
  std::vector<double> hardness(n, 0.0);
  for (double& h : hardness) {
    switch (shape) {
      case 0:  // uniform
        h = gen.Uniform();
        break;
      case 1:  // 90/10 skewed
        h = gen.Uniform() < 0.9 ? gen.Uniform(0.0, 0.1)
                                : gen.Uniform(0.1, 1.0);
        break;
      case 2:  // all zero
        break;
      case 3:  // constant
        h = 0.37;
        break;
      case 4:  // 4-level ties reaching the maximum
        h = 0.3 * static_cast<double>(gen.Index(4));
        break;
      case 5:  // half zeros
        h = gen.Uniform() < 0.5 ? 0.0 : gen.Uniform();
        break;
    }
  }
  return hardness;
}

TEST(SelfPacedOracleTest, TableSamplerMatchesPerBinListsExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  const double alphas[] = {0.0, 0.1, std::tan(0.3 * std::numbers::pi / 2.0),
                           std::tan(0.8 * std::numbers::pi / 2.0), 1e9, inf};
  const std::size_t sizes[] = {1, 2, 7, 64, 333, 4096, 50000};
  const std::size_t bin_counts[] = {1, 2, 5, 20, 64};
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  for (int shape = 0; shape < 6; ++shape) {
    for (const std::size_t n : sizes) {
      Rng gen(static_cast<std::uint64_t>(shape) * 1000 + n);
      const std::vector<double> hardness = OracleHardness(shape, n, gen);
      const std::size_t targets[] = {1, n / 10 + 1, n / 2, n - 1, n, n + 5};
      for (const std::size_t k : bin_counts) {
        for (const double alpha : alphas) {
          for (const std::size_t target : targets) {
            ++cases;
            const std::uint64_t seed = cases;
            Rng ref_rng(seed);
            Rng rng(seed);
            std::vector<std::size_t> ref_bins;
            std::vector<std::size_t> got_bins;
            const std::vector<std::size_t> expected =
                ReferenceSelfPacedUnderSample(hardness, alpha, k, target,
                                              ref_rng, &ref_bins);
            const std::vector<std::size_t> got = SelfPacedUnderSample(
                hardness, alpha, k, target, rng, &got_bins);
            const std::size_t next_ref = ref_rng.Index(std::size_t{1} << 62);
            const std::size_t next = rng.Index(std::size_t{1} << 62);
            if (got != expected || got_bins != ref_bins || next != next_ref) {
              ADD_FAILURE() << "shape " << shape << " n " << n << " k " << k
                            << " alpha " << alpha << " target " << target
                            << ": picks " << (got == expected ? "same" : "differ")
                            << ", bin quotas "
                            << (got_bins == ref_bins ? "same" : "differ")
                            << ", next draw "
                            << (next == next_ref ? "same" : "differs");
              ASSERT_LT(++mismatches, 10u) << "giving up";
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 7560u);
}

}  // namespace
}  // namespace spe
