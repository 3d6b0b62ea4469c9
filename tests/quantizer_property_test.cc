// Property tests for gbdt::FeatureBinner's rank semantics, which GBDT's
// train/predict agreement rests on: the trainer picks splits on bin
// indices and records the cut value as the raw threshold, and scoring
// compares raw values against that threshold.
//
// The load-bearing lemma, fuzzed here over random distributions and
// pinned on every edge the IEEE order has:
//
//     v <= cuts[c]   ⟺   BinOf(v) <= c
//
// for every double v (±Inf included, boundary values exactly on a cut
// included) and every cut rank c. If it ever broke for one representable
// value, a row the trainer binned left of a split would score right of
// it. NaN is the deliberate exception: BinOf cannot rank it (every
// comparison is false, so lower_bound leaves it in bin 0 — the LEFT
// edge), while tree descent sends it RIGHT; this file pins that too.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/gbdt/binning.h"
#include "spe/common/rng.h"
#include "spe/data/dataset.h"

namespace spe {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Hostile probe values for a given cut list: every cut itself, its
// one-ulp neighbors on both sides, the infinities, zero crossings, and
// a cloud of random draws.
std::vector<double> ProbeValues(const std::vector<double>& cuts, Rng& rng) {
  std::vector<double> probes = {-kInf, kInf, 0.0, -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::max()};
  for (const double c : cuts) {
    probes.push_back(c);
    probes.push_back(std::nextafter(c, -kInf));
    probes.push_back(std::nextafter(c, kInf));
  }
  for (int i = 0; i < 200; ++i) probes.push_back(rng.Gaussian(0.0, 3.0));
  for (int i = 0; i < 50; ++i) probes.push_back(rng.Uniform(-1e12, 1e12));
  return probes;
}

// The lemma itself, checked exhaustively over probes × cut ranks.
void ExpectRankLemma(const gbdt::FeatureBinner& binner, std::size_t feature,
                     Rng& rng) {
  const std::span<const double> cuts = binner.Boundaries(feature);
  const std::vector<double> probes =
      ProbeValues({cuts.begin(), cuts.end()}, rng);
  for (const double v : probes) {
    const int bin = binner.BinOf(feature, v);
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      EXPECT_EQ(v <= cuts[c], bin <= static_cast<int>(c))
          << "v=" << v << " cut[" << c << "]=" << cuts[c] << " bin=" << bin;
    }
  }
}

// Random continuous + low-cardinality distributions through Fit: the
// learned boundaries must satisfy the lemma regardless of how the cuts
// were chosen.
TEST(QuantizerPropertyTest, FittedBinnerSatisfiesRankLemma) {
  Rng rng(42);
  for (int round = 0; round < 8; ++round) {
    Dataset data(3);
    const std::size_t rows = 200 + 150 * static_cast<std::size_t>(round);
    for (std::size_t i = 0; i < rows; ++i) {
      // Feature 0: continuous; feature 1: heavy ties (categorical-ish);
      // feature 2: mixed sign with large magnitude spread.
      const std::vector<double> row = {
          rng.Gaussian(0.0, 2.0),
          static_cast<double>(static_cast<int>(rng.Uniform(0.0, 6.0))),
          rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.Uniform(-3.0, 6.0))};
      data.AddRow(row, i % 2 == 0 ? 0 : 1);
    }
    gbdt::FeatureBinner binner;
    binner.Fit(data, 32);
    for (std::size_t f = 0; f < 3; ++f) ExpectRankLemma(binner, f, rng);
  }
}

// Values exactly on a boundary: cut rank c holds its own cut value
// (bin(cuts[c]) == c — the `<=` side of the split), and the next
// representable double above it already ranks c + 1. UpperEdge(c) is
// that cut — the raw threshold a split on bin c records — and the last
// bin's edge is +Inf.
TEST(QuantizerPropertyTest, BoundaryValuesPin) {
  // Six distinct values: one bin each, cut at the midpoints
  // {-2.5, -1.0, 0.5, 2.5, 7.0}.
  Dataset data(1);
  for (const double v : {-3.0, -2.0, 0.0, 1.0, 4.0, 10.0, 4.0, -3.0}) {
    data.AddRow(std::vector<double>{v}, 0);
  }
  gbdt::FeatureBinner binner;
  binner.Fit(data, 8);
  const std::span<const double> cuts = binner.Boundaries(0);
  ASSERT_EQ(cuts.size(), 5u);
  EXPECT_EQ(binner.NumBins(0), 6);
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const int rank = static_cast<int>(c);
    EXPECT_EQ(binner.BinOf(0, cuts[c]), rank);
    EXPECT_EQ(binner.BinOf(0, std::nextafter(cuts[c], kInf)), rank + 1);
    EXPECT_EQ(binner.BinOf(0, std::nextafter(cuts[c], -kInf)), rank);
    EXPECT_EQ(binner.UpperEdge(0, rank), cuts[c]);
  }
  EXPECT_EQ(binner.UpperEdge(0, static_cast<int>(cuts.size())), kInf);
  EXPECT_EQ(binner.BinOf(0, -kInf), 0);
  EXPECT_EQ(binner.BinOf(0, kInf), static_cast<int>(cuts.size()));
  // NaN lands in bin 0 — the LEFT edge, the opposite of tree-descent
  // routing, where `NaN <= t` is false and the row goes right.
  EXPECT_EQ(binner.BinOf(0, kNaN), 0);
}

}  // namespace
}  // namespace spe
