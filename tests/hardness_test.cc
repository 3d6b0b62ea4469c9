#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/rng.h"
#include "spe/core/hardness.h"
#include "spe/core/self_paced_sampler.h"

namespace spe {
namespace {

TEST(HardnessTest, AbsoluteError) {
  const HardnessFn h = MakeHardness(HardnessKind::kAbsoluteError);
  EXPECT_DOUBLE_EQ(h(0.8, 1), 0.2);
  EXPECT_DOUBLE_EQ(h(0.8, 0), 0.8);
  EXPECT_DOUBLE_EQ(h(0.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(h(0.0, 1), 1.0);
}

TEST(HardnessTest, SquaredError) {
  const HardnessFn h = MakeHardness(HardnessKind::kSquaredError);
  EXPECT_DOUBLE_EQ(h(0.8, 1), 0.04);
  EXPECT_NEAR(h(0.3, 0), 0.09, 1e-12);
}

TEST(HardnessTest, CrossEntropy) {
  const HardnessFn h = MakeHardness(HardnessKind::kCrossEntropy);
  EXPECT_NEAR(h(0.5, 1), std::log(2.0), 1e-12);
  EXPECT_NEAR(h(0.9, 0), -std::log(0.1), 1e-9);
  // Clamped: extreme probabilities do not produce infinities.
  EXPECT_TRUE(std::isfinite(h(0.0, 1)));
  EXPECT_TRUE(std::isfinite(h(1.0, 0)));
}

TEST(HardnessTest, Names) {
  EXPECT_EQ(HardnessName(HardnessKind::kAbsoluteError), "AE");
  EXPECT_EQ(HardnessName(HardnessKind::kSquaredError), "SE");
  EXPECT_EQ(HardnessName(HardnessKind::kCrossEntropy), "CE");
}

TEST(HardnessTest, ComputeHardnessVectorized) {
  const HardnessFn h = MakeHardness(HardnessKind::kAbsoluteError);
  const std::vector<double> probs = {0.1, 0.9};
  const std::vector<int> labels = {1, 0};
  const std::vector<double> out = ComputeHardness(h, probs, labels);
  EXPECT_DOUBLE_EQ(out[0], 0.9);
  EXPECT_DOUBLE_EQ(out[1], 0.9);
}

TEST(HardnessBinsTest, PopulationSumsToSampleCount) {
  Rng rng(1);
  std::vector<double> hardness(500);
  for (double& h : hardness) h = rng.Uniform();
  const HardnessBins bins = ComputeHardnessBins(hardness, 20);
  EXPECT_EQ(std::accumulate(bins.population.begin(), bins.population.end(),
                            std::size_t{0}),
            500u);
  double total = 0.0;
  for (double c : bins.contribution) total += c;
  double expected = 0.0;
  for (double h : hardness) expected += h;
  EXPECT_NEAR(total, expected, 1e-9);
}

TEST(HardnessBinsTest, BinAssignmentSpansObservedRange) {
  // Bins cover [min, max] = [0.0, 1.0] here, so assignments follow the
  // normalized value directly.
  const std::vector<double> hardness = {0.0, 0.15, 0.95, 1.0, 0.5};
  const HardnessBins bins = ComputeHardnessBins(hardness, 10);
  EXPECT_EQ(bins.min, 0.0);
  EXPECT_EQ(bins.max, 1.0);
  const auto bin = [&](std::size_t i) {
    return HardnessBinIndex(hardness[i], bins.min, bins.max, 10);
  };
  EXPECT_EQ(bin(0), 0u);
  EXPECT_EQ(bin(1), 1u);
  EXPECT_EQ(bin(2), 9u);
  EXPECT_EQ(bin(3), 9u);  // h == max goes to the top bin
  EXPECT_EQ(bin(4), 5u);
}

TEST(HardnessBinsTest, ConcentratedHardnessStillUsesAllBins) {
  // Every value below 0.2: a fixed [0, 1] grid would collapse everything
  // into two bins; range-based binning keeps the full resolution.
  const std::vector<double> hardness = {0.00, 0.02, 0.04, 0.06, 0.08,
                                        0.10, 0.12, 0.14, 0.16, 0.18};
  const HardnessBins bins = ComputeHardnessBins(hardness, 10);
  for (std::size_t i = 0; i < hardness.size(); ++i) {
    EXPECT_EQ(HardnessBinIndex(hardness[i], bins.min, bins.max, 10),
              std::min<std::size_t>(i, 9));
  }
}

TEST(HardnessBinsTest, ConstantHardnessLandsInOneBin) {
  const std::vector<double> hardness = {0.3, 0.3, 0.3};
  const HardnessBins bins = ComputeHardnessBins(hardness, 5);
  EXPECT_EQ(bins.population[0], 3u);
  for (std::size_t b = 1; b < 5; ++b) EXPECT_EQ(bins.population[b], 0u);
}

TEST(HardnessBinsTest, UnboundedHardnessIsNormalized) {
  // Cross-entropy style values > 1: the grid must still cover them.
  const std::vector<double> hardness = {0.0, 2.0, 8.0};
  const HardnessBins bins = ComputeHardnessBins(hardness, 4);
  const auto bin = [&](std::size_t i) {
    return HardnessBinIndex(hardness[i], bins.min, bins.max, 4);
  };
  EXPECT_EQ(bin(0), 0u);
  EXPECT_EQ(bin(1), 1u);  // 2/8 = 0.25 -> bin 1
  EXPECT_EQ(bin(2), 3u);
}

// Bins are not stored per sample: HardnessBinIndex over the reported
// range must place every sample exactly where the population counted it,
// ties at the maximum and constant inputs included.
TEST(HardnessBinsTest, BinIndexReproducesPopulation) {
  Rng rng(7);
  std::vector<std::vector<double>> shapes(4, std::vector<double>(2000));
  for (double& h : shapes[0]) h = rng.Uniform();
  for (double& h : shapes[1]) {
    h = rng.Uniform() < 0.9 ? rng.Uniform(0.0, 0.1) : rng.Uniform(0.1, 1.0);
  }
  for (double& h : shapes[2]) h = 0.25 * static_cast<double>(rng.Index(4));
  for (double& h : shapes[3]) h = 0.3;
  for (const std::vector<double>& hardness : shapes) {
    for (const std::size_t k : {1u, 3u, 20u, 64u}) {
      const HardnessBins bins = ComputeHardnessBins(hardness, k);
      std::vector<std::size_t> population(k, 0);
      for (const double h : hardness) {
        ++population[HardnessBinIndex(h, bins.min, bins.max, k)];
      }
      EXPECT_EQ(population, bins.population) << "k = " << k;
    }
  }
}

TEST(HardnessBinsTest, MeanHardnessPerBin) {
  const std::vector<double> hardness = {0.1, 0.12, 0.9};
  const HardnessBins bins = ComputeHardnessBins(hardness, 2);
  EXPECT_NEAR(bins.mean_hardness[0], 0.11, 1e-12);
  EXPECT_NEAR(bins.mean_hardness[1], 0.9, 1e-12);
}

TEST(HardnessBinsDeathTest, NanHardnessNamesTheSample) {
  // A NaN would otherwise surface as the misleading "must be
  // non-negative" abort; the message must point at the actual defect
  // and the offending index.
  const std::vector<double> hardness = {
      0.1, 0.2, std::numeric_limits<double>::quiet_NaN(), 0.4};
  EXPECT_DEATH(ComputeHardnessBins(hardness, 4),
               "hardness is NaN for sample 2");
}

// ------------------------------------------------ Self-paced sampling --

TEST(SelfPacedSamplerTest, ReturnsExactTargetCount) {
  Rng rng(2);
  std::vector<double> hardness(1000);
  for (double& h : hardness) h = rng.Uniform();
  for (double alpha : {0.0, 0.1, 1.0, 100.0}) {
    Rng local(3);
    const auto pick = SelfPacedUnderSample(hardness, alpha, 20, 137, local);
    EXPECT_EQ(pick.size(), 137u) << "alpha=" << alpha;
  }
}

TEST(SelfPacedSamplerTest, IndicesAreUniqueAndValid) {
  Rng rng(4);
  std::vector<double> hardness(300);
  for (double& h : hardness) h = rng.Uniform();
  const auto pick = SelfPacedUnderSample(hardness, 0.5, 10, 100, rng);
  std::set<std::size_t> unique(pick.begin(), pick.end());
  EXPECT_EQ(unique.size(), pick.size());
  for (std::size_t i : pick) EXPECT_LT(i, 300u);
}

TEST(SelfPacedSamplerTest, TargetLargerThanPoolTakesAll) {
  std::vector<double> hardness = {0.1, 0.5, 0.9};
  Rng rng(5);
  const auto pick = SelfPacedUnderSample(hardness, 0.0, 5, 10, rng);
  EXPECT_EQ(pick.size(), 3u);
}

TEST(SelfPacedSamplerTest, AlphaZeroHarmonizesContribution) {
  // Two populations: 9000 easy samples (h=0.1) and 100 hard ones (h=0.9).
  // With alpha=0, bin weights are 1/h, so quotas ~ (1/0.1) : (1/0.9) =
  // 90% : 10% -> per-bin hardness contribution 0.1*q1 ≈ 0.9*q2.
  std::vector<double> hardness;
  hardness.insert(hardness.end(), 9000, 0.1);
  hardness.insert(hardness.end(), 100, 0.9);
  Rng rng(6);
  const auto pick = SelfPacedUnderSample(hardness, 0.0, 10, 1000, rng);
  double easy_contrib = 0.0;
  double hard_contrib = 0.0;
  for (std::size_t i : pick) {
    (hardness[i] < 0.5 ? easy_contrib : hard_contrib) += hardness[i];
  }
  // Hard bin saturates at 100 samples -> 90 hardness; easy bin's quota
  // gives ~900 * 0.1 = 90 hardness. Near-equal contributions.
  EXPECT_NEAR(easy_contrib / hard_contrib, 1.0, 0.25);
}

TEST(SelfPacedSamplerTest, LargeAlphaPrefersHardSamples) {
  // Same two populations; with alpha -> inf quotas are uniform over bins,
  // so the tiny hard bin is fully taken and hard samples are heavily
  // over-represented relative to their 1% share.
  std::vector<double> hardness;
  hardness.insert(hardness.end(), 9900, 0.05);
  hardness.insert(hardness.end(), 100, 0.95);
  Rng rng(7);
  const auto pick = SelfPacedUnderSample(
      hardness, std::numeric_limits<double>::infinity(), 10, 200, rng);
  std::size_t hard = 0;
  for (std::size_t i : pick) hard += (hardness[i] > 0.5);
  EXPECT_EQ(hard, 100u);  // the whole hard bin survives
}

TEST(SelfPacedSamplerTest, AlphaControlsTrivialSampleShare) {
  // Monotonicity: growing alpha shifts mass from the huge easy bin
  // toward uniform-over-bins.
  Rng gen(8);
  std::vector<double> hardness;
  for (int i = 0; i < 5000; ++i) hardness.push_back(gen.Uniform(0.0, 0.2));
  for (int i = 0; i < 500; ++i) hardness.push_back(gen.Uniform(0.2, 1.0));
  std::size_t prev_easy = hardness.size();
  for (double alpha : {0.0, 0.3, 3.0, 1e9}) {
    Rng rng(9);
    const auto pick = SelfPacedUnderSample(hardness, alpha, 10, 500, rng);
    std::size_t easy = 0;
    for (std::size_t i : pick) easy += (hardness[i] <= 0.2);
    EXPECT_LE(easy, prev_easy + 25) << "alpha=" << alpha;
    prev_easy = easy;
  }
}

// ------------------------------------- Hardness evaluated where read --

// MajorityHardness must reproduce the stored hardness vector the fit
// used to keep, fn(prob_sum[m] / prob_count, 0), bit for bit: the same
// bins from ComputeHardnessBins, the same picks, quotas and Rng state
// from SelfPacedUnderSample, for every built-in kind (inlined) and for
// a custom closure (called through its HardnessFn).
TEST(MajorityHardnessTest, MatchesTheStoredHardnessVector) {
  const HardnessFn custom = [](double prob, int label) {
    return std::sqrt(std::abs(prob - label));
  };
  Rng gen(12);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = 1 + gen.Index(5000);
    const std::size_t count = 1 + gen.Index(11);
    std::vector<double> prob_sum(n);
    // Tree-like sums: many exact ties, values in [0, count].
    for (double& s : prob_sum) {
      s = gen.Uniform() < 0.5 ? std::floor(gen.Uniform(0.0, 4.0)) / 3.0 * count
                              : gen.Uniform(0.0, static_cast<double>(count));
    }
    for (int kind = 0; kind < 4; ++kind) {
      MajorityHardness accessor{prob_sum, count,
                                static_cast<HardnessKind>(kind % 3),
                                kind == 3 ? &custom : nullptr};
      const HardnessFn fn =
          kind == 3 ? custom : MakeHardness(static_cast<HardnessKind>(kind));
      std::vector<double> stored(n);
      for (std::size_t m = 0; m < n; ++m) {
        stored[m] = fn(prob_sum[m] / static_cast<double>(count), 0);
      }
      const HardnessBins expected = ComputeHardnessBins(stored, 20);
      const HardnessBins got = ComputeHardnessBins(accessor, 20);
      ASSERT_EQ(got.population, expected.population) << trial << "/" << kind;
      ASSERT_EQ(got.contribution, expected.contribution) << trial << "/" << kind;
      ASSERT_EQ(got.min, expected.min);
      ASSERT_EQ(got.max, expected.max);

      const double alpha = gen.Uniform() < 0.2 ? 0.0 : gen.Uniform(0.0, 3.0);
      const std::size_t target = 1 + gen.Index(n);
      Rng expected_rng(trial);
      Rng got_rng(trial);
      std::vector<std::size_t> expected_bins;
      std::vector<std::size_t> got_bins;
      ASSERT_EQ(SelfPacedUnderSample(accessor, alpha, 20, target, got_rng,
                                     &got_bins),
                SelfPacedUnderSample(stored, alpha, 20, target, expected_rng,
                                     &expected_bins))
          << trial << "/" << kind;
      ASSERT_EQ(got_bins, expected_bins);
      ASSERT_EQ(got_rng.Index(1u << 30), expected_rng.Index(1u << 30));
    }
  }
}

// The row form keys sample m to the m-th label-0 row of a view. Pick r
// must be the label-0 row of the ordinal form's pick r, with the same
// quotas and Rng state, on a view whose label-0 rows are shuffled,
// repeated and interleaved with positives; the take-everything and
// all-trivial fallback paths included. SampleMajorityRows must return
// the rows at Rng::SampleWithoutReplacement's ordinals.
TEST(MajorityHardnessTest, RowFormPicksTheOrdinalFormsRows) {
  Rng gen(13);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t parent_rows = 2 + gen.Index(6000);
    Dataset data(1);
    for (std::size_t i = 0; i < parent_rows; ++i) {
      data.AddRow(std::vector<double>{static_cast<double>(i)},
                  gen.Uniform() < 0.3 ? 1 : 0);
    }
    std::vector<std::size_t> idx(parent_rows);
    for (std::size_t i = 0; i < parent_rows; ++i) idx[i] = i;
    gen.Shuffle(idx);
    for (std::size_t i = 0; i < parent_rows / 4; ++i) {
      idx.push_back(gen.Index(parent_rows));
    }
    const DatasetView view(data, idx);
    const std::vector<std::size_t> label0 = view.NegativeIndices();
    if (label0.empty()) continue;
    const std::size_t n = label0.size();
    const std::size_t count = 1 + gen.Index(5);
    const bool trivial = trial % 5 == 0;
    std::vector<double> prob_sum(n, 0.0);
    if (!trivial) {
      for (double& s : prob_sum) {
        s = std::floor(gen.Uniform(0.0, 4.0)) / 3.0 * static_cast<double>(count);
      }
    }
    const MajorityHardness hardness{prob_sum, count};
    const double alpha = trivial ? 0.0 : gen.Uniform(0.0, 3.0);
    const std::size_t target = 1 + gen.Index(n + 5);
    Rng ordinal_rng(trial);
    Rng row_rng(trial);
    std::vector<std::size_t> ordinal_bins;
    std::vector<std::size_t> row_bins;
    const std::vector<std::size_t> ordinal = SelfPacedUnderSample(
        hardness, alpha, 20, target, ordinal_rng, &ordinal_bins);
    const std::vector<std::size_t> rows = SelfPacedUnderSample(
        hardness, view, alpha, 20, target, row_rng, &row_bins);
    ASSERT_EQ(rows.size(), ordinal.size()) << trial;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ASSERT_EQ(rows[k], label0[ordinal[k]]) << trial << "/" << k;
    }
    ASSERT_EQ(row_bins, ordinal_bins) << trial;
    ASSERT_EQ(row_rng.Index(1u << 30), ordinal_rng.Index(1u << 30)) << trial;

    const std::size_t take = 1 + gen.Index(n + 3);
    Rng pool_rng(trial + 100);
    Rng pick_rng(trial + 100);
    const std::vector<std::size_t> picked =
        SampleMajorityRows(view, take, pick_rng);
    if (take >= n) {
      ASSERT_EQ(picked, label0) << trial;
    } else {
      const std::vector<std::size_t> pool =
          pool_rng.SampleWithoutReplacement(n, take);
      ASSERT_EQ(picked.size(), take);
      for (std::size_t k = 0; k < take; ++k) {
        ASSERT_EQ(picked[k], label0[pool[k]]) << trial << "/" << k;
      }
    }
    ASSERT_EQ(pick_rng.Index(1u << 30), pool_rng.Index(1u << 30)) << trial;
  }
}

}  // namespace
}  // namespace spe
