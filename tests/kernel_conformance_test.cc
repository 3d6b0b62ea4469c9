// Differential conformance suite for the flat inference kernel
// (spe/kernels/flat_forest.h). Every ensemble scored here runs through
// the reference member loop (the oracle, SPE_FLAT_KERNEL=0) and the flat
// kernel, and the two must agree byte for byte (memcmp).
//
// The kernel has two walks — the complete-tree relayout for trees
// within its depth and padding caps, the pooled node walk for the rest —
// picked per tree, so both are covered: the depth matrix spans trees on
// both sides of the caps, and one forest deliberately mixes a tree
// deeper than kernels::kCompleteMaxDepth with shallow ones. The matrix
// also covers randomized ensembles across tree counts, NaN patterns,
// GBDT members, prefixes, thread counts and the block-boundary row
// counts 0/1/63/64/65/10k. Registered under both the `kernel` and
// `sanitize` ctest labels: the walks must stay ASan/UBSan/TSan-clean.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/parallel.h"
#include "spe/common/rng.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using ::spe::testing::SameBytes;

// Every test leaves the process-wide knobs where it found them.
class KernelConformanceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    kernels::SetFlatKernelEnabled(true);
    SetNumThreads(0);
  }
};

enum class NanPattern { kNone, kSparse, kAllNanRows, kNanColumn };

// Randomized scoring batch in `features` dimensions (wider than the
// 2-D training blobs exercise only the first two feature columns, but
// widen the row stride), with the chosen hostile-NaN shape.
Dataset RandomBatch(std::size_t rows, std::size_t features,
                    std::uint64_t seed, NanPattern pattern) {
  Rng rng(seed);
  Dataset data(features);
  std::vector<double> row(features);
  for (std::size_t i = 0; i < rows; ++i) {
    const int label = rng.Uniform() < 0.25 ? 1 : 0;
    const double shift = label == 1 ? 1.5 : 0.0;
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = rng.Gaussian(shift, 1.0);
    }
    data.AddRow(row, label);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (pattern) {
    case NanPattern::kNone:
      break;
    case NanPattern::kSparse:
      for (std::size_t i = 0; i < rows; i += 7) data.Set(i, 0, nan);
      for (std::size_t i = 3; i < rows; i += 11) data.Set(i, 1 % features, nan);
      break;
    case NanPattern::kAllNanRows:
      for (std::size_t i = 0; i < rows; i += 5) {
        for (std::size_t f = 0; f < features; ++f) data.Set(i, f, nan);
      }
      break;
    case NanPattern::kNanColumn:
      for (std::size_t i = 0; i < rows; ++i) data.Set(i, 0, nan);
      break;
  }
  return data;
}

// A fitted SPE forest of `trees` depth-`depth` trees — the randomized
// ensemble under test. Seeds flow into training so every (trees, depth)
// cell scores a genuinely different forest.
SelfPacedEnsemble RandomForestModel(int trees, int depth,
                                    std::uint64_t seed) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = trees;
  DecisionTreeConfig tree;
  tree.max_depth = depth;
  SelfPacedEnsemble model(config, std::make_unique<DecisionTree>(tree));
  const Dataset train = OverlappingBlobs(700, 120, seed);
  model.Fit(train);
  return model;
}

// Scores `batch` through the reference loop and the flat kernel and
// requires the same bytes.
void ExpectConformance(const Classifier& model, const Dataset& batch,
                       const std::string& what) {
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = model.PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);
  const std::vector<double> flat = model.PredictProba(batch);
  EXPECT_TRUE(SameBytes(reference, flat)) << what;
}

// Block-boundary row counts: 0 rows, 1 row, one row short of a block,
// exactly one block, one row into the second block, and a large batch
// that spans many parallel grains.
TEST_F(KernelConformanceTest, RowCountMatrix) {
  const SelfPacedEnsemble model = RandomForestModel(5, 6, 101);
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{10000}}) {
    const Dataset batch = RandomBatch(rows, 2, 200 + rows, NanPattern::kSparse);
    ExpectConformance(model, batch, "rows=" + std::to_string(rows));
  }
}

// Randomized ensembles across tree counts and depths.
TEST_F(KernelConformanceTest, TreeDepthMatrix) {
  std::uint64_t seed = 300;
  for (const int trees : {1, 4, 10}) {
    for (const int depth : {1, 4, 10}) {
      const SelfPacedEnsemble model = RandomForestModel(trees, depth, ++seed);
      const Dataset batch = RandomBatch(400, 2, seed * 7, NanPattern::kSparse);
      ExpectConformance(model, batch,
                        "trees=" + std::to_string(trees) +
                            " depth=" + std::to_string(depth));
    }
  }
}

TEST_F(KernelConformanceTest, NanPatternMatrix) {
  const SelfPacedEnsemble model = RandomForestModel(6, 5, 400);
  int i = 0;
  for (const NanPattern pattern :
       {NanPattern::kNone, NanPattern::kSparse, NanPattern::kAllNanRows,
        NanPattern::kNanColumn}) {
    const Dataset batch = RandomBatch(500, 2, 500 + i, pattern);
    ExpectConformance(model, batch, "nan pattern " + std::to_string(i));
    ++i;
  }
}

// GBDT members lower to boosted-logit ops: base + lr·leaf per tree in
// order, then the reference sigmoid.
TEST_F(KernelConformanceTest, GbdtEnsembleConforms) {
  const Dataset train = OverlappingBlobs(800, 110, 600);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  GbdtConfig gbdt;
  gbdt.boost_rounds = 10;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt));
  model.Fit(train);

  ASSERT_NE(model.members().flat_kernel(), nullptr);
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
  ExpectConformance(model, RandomBatch(700, 2, 601, NanPattern::kSparse),
                    "spe over gbdt");
}

// Both walks in one forest, byte-compared. An unbounded tree over a
// large overlapping sample grows deeper than kCompleteMaxDepth, so it is
// certain to take the pooled walk; depth-4 trees pad to at most 31
// slots, far inside the expansion cap, so they are certain to take the
// complete walk. The mix must match the reference at every thread count.
TEST_F(KernelConformanceTest, PooledAndCompleteWalksMixInOneForest) {
  VotingEnsemble members;
  DecisionTreeConfig deep;
  deep.max_depth = 30;
  auto big = std::make_unique<DecisionTree>(deep);
  big->Fit(OverlappingBlobs(2500, 2500, 700));
  ASSERT_GT(big->Depth(), kernels::kCompleteMaxDepth);
  members.Add(std::move(big));
  DecisionTreeConfig shallow;
  shallow.max_depth = 4;
  for (const std::uint64_t seed : {710, 711, 712}) {
    auto tree = std::make_unique<DecisionTree>(shallow);
    tree->Fit(OverlappingBlobs(300, 60, seed));
    ASSERT_LE(tree->Depth(), 4);
    members.Add(std::move(tree));
  }
  const VotingEnsembleModel model(std::move(members));
  ASSERT_STREQ("flat", kernels::ActiveKernel(model));

  const Dataset batch = RandomBatch(1000, 2, 701, NanPattern::kSparse);
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = model.PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SetNumThreads(threads);
    EXPECT_TRUE(SameBytes(reference, model.PredictProba(batch)))
        << "threads=" << threads;
  }
}

// Prefix scoring (the serve layer's degradation knob) conforms at
// k = 1, mid, all.
TEST_F(KernelConformanceTest, PrefixConformance) {
  const SelfPacedEnsemble model = RandomForestModel(8, 5, 800);
  const Dataset batch = RandomBatch(300, 2, 801, NanPattern::kSparse);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    kernels::SetFlatKernelEnabled(false);
    const std::vector<double> reference = model.PredictProbaPrefix(batch, k);
    kernels::SetFlatKernelEnabled(true);
    EXPECT_TRUE(SameBytes(reference, model.PredictProbaPrefix(batch, k)))
        << "k=" << k;
  }
}

// Thread-count invariance: blocks write disjoint ranges with identical
// arithmetic, so 1 vs 8 threads must agree to the byte.
TEST_F(KernelConformanceTest, ThreadCountInvariance) {
  const SelfPacedEnsemble model = RandomForestModel(6, 6, 900);
  const Dataset batch = RandomBatch(2000, 2, 901, NanPattern::kSparse);
  SetNumThreads(1);
  const std::vector<double> one = model.PredictProba(batch);
  SetNumThreads(8);
  const std::vector<double> eight = model.PredictProba(batch);
  EXPECT_TRUE(SameBytes(one, eight));
}

}  // namespace
}  // namespace spe
