// Bit-identity contract of the flat SoA inference kernel
// (spe/kernels/flat_forest.h): for every tree-backed ensemble the flat
// path must reproduce the reference path byte-for-byte — same NaN
// routing, same accumulation order, any batch shape, any prefix, any
// thread count. Every comparison here is a memcmp over the raw double
// bytes, not an EXPECT_NEAR.
//
// Also covered: capability discovery (non-lowerable members fall back
// to the reference path), cache invalidation on Add/Truncate, the
// runtime kill switch, compile-on-load for bundles, and the serve
// layer's kernel label.

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/bagging.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/parallel.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/obs/metrics.h"
#include "spe/serve/batch_scorer.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using ::spe::testing::SameBytes;

// Every test must leave the process-wide knobs where it found them:
// kernel enabled, thread count at the environment default.
class FlatForestTest : public ::testing::Test {
 protected:
  void TearDown() override {
    kernels::SetFlatKernelEnabled(true);
    SetNumThreads(0);
  }
};

// Scoring batch with hostile shapes: a few all-NaN rows, a few rows
// with one NaN feature (missing-value routing must take the same edge
// in both paths), plus ordinary rows.
Dataset ScoringBatch(std::size_t rows, std::uint64_t seed) {
  Dataset data = OverlappingBlobs(rows / 2, rows - rows / 2, seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < data.num_rows(); i += 7) {
    data.Set(i, 0, nan);
  }
  for (std::size_t i = 3; i < data.num_rows(); i += 11) {
    data.Set(i, 0, nan);
    data.Set(i, 1, nan);
  }
  return data;
}

// The contract at 1 and 8 threads: the flat kernel's bytes equal the
// reference path's bytes. The reference run is forced with the runtime
// switch, which the fast path consults per batch. Models that support
// prefix scoring (discovered the same way the serving layer does) are
// additionally checked at k in {1, mid, all}.
void ExpectFlatMatchesReference(const Classifier& model, const Dataset& data) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SetNumThreads(threads);
    kernels::SetFlatKernelEnabled(false);
    const std::vector<double> reference = model.PredictProba(data);
    kernels::SetFlatKernelEnabled(true);
    const std::vector<double> flat = model.PredictProba(data);
    EXPECT_TRUE(SameBytes(reference, flat))
        << "PredictProba threads=" << threads;
  }
  if (const auto* prefix_model = dynamic_cast<const PrefixVoter*>(&model)) {
    const std::size_t members = prefix_model->NumPrefixMembers();
    for (std::size_t k : {std::size_t{1}, members / 2, members}) {
      if (k == 0) continue;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SetNumThreads(threads);
        kernels::SetFlatKernelEnabled(false);
        const std::vector<double> reference =
            prefix_model->PredictProbaPrefix(data, k);
        kernels::SetFlatKernelEnabled(true);
        const std::vector<double> flat =
            prefix_model->PredictProbaPrefix(data, k);
        EXPECT_TRUE(SameBytes(reference, flat))
            << "prefix k=" << k << " threads=" << threads;
      }
    }
  }
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
}

TEST_F(FlatForestTest, SelfPacedEnsembleBitIdentical) {
  const Dataset train = OverlappingBlobs(1100, 100, 42);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  DecisionTreeConfig tree;
  tree.max_depth = 10;
  SelfPacedEnsemble model(config, std::make_unique<DecisionTree>(tree));
  model.Fit(train);
  ExpectFlatMatchesReference(model, ScoringBatch(700, 7));
}

TEST_F(FlatForestTest, BaggingBitIdentical) {
  const Dataset train = OverlappingBlobs(600, 200, 43);
  BaggingConfig config;
  config.n_estimators = 8;
  Bagging model(config);
  model.Fit(train);
  ExpectFlatMatchesReference(model, ScoringBatch(500, 8));
}

TEST_F(FlatForestTest, RandomForestBitIdentical) {
  const Dataset train = OverlappingBlobs(600, 200, 44);
  RandomForestConfig config;
  config.n_estimators = 12;
  RandomForest model(config);
  model.Fit(train);
  ExpectFlatMatchesReference(model, ScoringBatch(500, 9));
}

// GBDT members: the kernel replays base_score + lr * leaf per boosting
// round, then the exact sigmoid — through an SPE vote over them.
TEST_F(FlatForestTest, SpeOverGbdtBitIdentical) {
  const Dataset train = OverlappingBlobs(900, 120, 45);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 4;
  GbdtConfig gbdt;
  gbdt.boost_rounds = 8;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt));
  model.Fit(train);
  ExpectFlatMatchesReference(model, ScoringBatch(400, 10));
}

// A single decision tree scored through the persisted-ensemble wrapper:
// the smallest compilable program (one member, one tree).
TEST_F(FlatForestTest, SingleTreeEnsembleBitIdentical) {
  const Dataset train = OverlappingBlobs(400, 150, 46);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  auto tree = std::make_unique<DecisionTree>(tree_config);
  tree->Fit(train);
  VotingEnsemble members;
  members.Add(std::move(tree));
  VotingEnsembleModel model(std::move(members));
  ExpectFlatMatchesReference(model, ScoringBatch(300, 11));
}

// Batch-shape edge cases: empty and single-row datasets through both
// paths (a 1-row batch exercises the partial last block).
TEST_F(FlatForestTest, TinyBatches) {
  const Dataset train = OverlappingBlobs(400, 150, 47);
  RandomForestConfig config;
  config.n_estimators = 5;
  RandomForest model(config);
  model.Fit(train);

  const Dataset empty(train.num_features());
  EXPECT_TRUE(model.PredictProba(empty).empty());

  Dataset one_row(train.num_features());
  const std::vector<double> row = {0.25,
                                   std::numeric_limits<double>::quiet_NaN()};
  one_row.AddRow(row, 1);
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = model.PredictProba(one_row);
  kernels::SetFlatKernelEnabled(true);
  const std::vector<double> flat = model.PredictProba(one_row);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_TRUE(SameBytes(reference, flat));
}

// Capability discovery: one member that cannot lower (logistic
// regression is not a tree) keeps the whole ensemble on the reference
// path — no partial compiles, no behavior change.
TEST_F(FlatForestTest, NonLowerableMemberFallsBack) {
  const Dataset train = OverlappingBlobs(400, 150, 48);
  VotingEnsemble members;
  auto tree = std::make_unique<DecisionTree>(DecisionTreeConfig{});
  tree->Fit(train);
  members.Add(std::move(tree));
  auto logit = std::make_unique<LogisticRegression>();
  logit->Fit(train);
  members.Add(std::move(logit));
  EXPECT_EQ(members.flat_kernel(), nullptr);

  VotingEnsembleModel model(std::move(members));
  EXPECT_STREQ("reference", kernels::ActiveKernel(model));
  const Dataset batch = ScoringBatch(200, 12);
  EXPECT_EQ(model.PredictProba(batch).size(), batch.num_rows());
}

// A model that is no VotingClassifier at all reports "reference" too.
TEST_F(FlatForestTest, PlainClassifierReportsReference) {
  const Dataset train = OverlappingBlobs(200, 100, 49);
  LogisticRegression model;
  model.Fit(train);
  EXPECT_STREQ("reference", kernels::ActiveKernel(model));
}

// The compiled program is dropped and rebuilt whenever the member list
// changes; stale programs would silently score with the wrong forest.
TEST_F(FlatForestTest, AddAndTruncateInvalidate) {
  const Dataset train = OverlappingBlobs(400, 150, 50);
  const Dataset batch = ScoringBatch(300, 13);
  VotingEnsemble members;
  for (int i = 0; i < 3; ++i) {
    DecisionTreeConfig config;
    config.max_depth = 4 + i;
    auto tree = std::make_unique<DecisionTree>(config);
    tree->Fit(train);
    members.Add(std::move(tree));
  }
  const kernels::FlatForest* flat = members.flat_kernel();
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->num_members(), 3u);

  auto extra = std::make_unique<DecisionTree>(DecisionTreeConfig{});
  extra->Fit(train);
  members.Add(std::move(extra));
  const kernels::FlatForest* recompiled = members.flat_kernel();
  ASSERT_NE(recompiled, nullptr);
  EXPECT_EQ(recompiled->num_members(), 4u);
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = members.PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);
  EXPECT_TRUE(SameBytes(reference, members.PredictProba(batch)));

  members.Truncate(2);
  ASSERT_NE(members.flat_kernel(), nullptr);
  EXPECT_EQ(members.flat_kernel()->num_members(), 2u);
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> truncated_reference = members.PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);
  EXPECT_TRUE(SameBytes(truncated_reference, members.PredictProba(batch)));
}

// The runtime switch routes around the kernel without recompiling.
TEST_F(FlatForestTest, RuntimeSwitch) {
  const Dataset train = OverlappingBlobs(300, 120, 51);
  BaggingConfig config;
  config.n_estimators = 4;
  Bagging model(config);
  model.Fit(train);
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
  kernels::SetFlatKernelEnabled(false);
  EXPECT_FALSE(kernels::FlatKernelEnabled());
  EXPECT_STREQ("reference", kernels::ActiveKernel(model));
  kernels::SetFlatKernelEnabled(true);
  EXPECT_STREQ("flat", kernels::ActiveKernel(model));
}

// LoadModelBundle warms the kernel before serving starts: loading a
// tree-backed bundle bumps the compile counter without anyone scoring.
TEST_F(FlatForestTest, BundleCompilesOnLoad) {
  const Dataset train = OverlappingBlobs(400, 150, 52);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 3;
  SelfPacedEnsemble model(config,
                          std::make_unique<DecisionTree>(DecisionTreeConfig{}));
  model.Fit(train);
  std::stringstream stream;
  SaveModelBundle(model, train.num_features(), stream);

  obs::SetEnabled(true);
  const std::uint64_t before = obs::MetricsRegistry::Global()
                                   .GetCounter("spe_kernels_compiles_total")
                                   .value();
  const ModelBundle bundle = LoadModelBundle(stream);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetCounter("spe_kernels_compiles_total")
                .value(),
            before);
  EXPECT_STREQ("flat", kernels::ActiveKernel(*bundle.model));

  // And the loaded artifact honors the identity contract end to end.
  const Dataset batch = ScoringBatch(300, 14);
  kernels::SetFlatKernelEnabled(false);
  const std::vector<double> reference = bundle.model->PredictProba(batch);
  kernels::SetFlatKernelEnabled(true);
  EXPECT_TRUE(SameBytes(reference, bundle.model->PredictProba(batch)));
}

// The serve layer reports which path its model scores on.
TEST_F(FlatForestTest, BatchScorerReportsKernel) {
  const Dataset train = OverlappingBlobs(300, 120, 53);
  {
    RandomForestConfig config;
    config.n_estimators = 4;
    auto model = std::make_unique<RandomForest>(config);
    model->Fit(train);
    BatchScorer scorer(std::move(model), train.num_features());
    EXPECT_STREQ("flat", scorer.kernel());
    const std::vector<double> row = {0.5, -0.25};
    EXPECT_GE(scorer.Score(row), 0.0);
  }
  {
    auto model = std::make_unique<LogisticRegression>();
    model->Fit(train);
    BatchScorer scorer(std::move(model), train.num_features());
    EXPECT_STREQ("reference", scorer.kernel());
  }
}

}  // namespace
}  // namespace spe
