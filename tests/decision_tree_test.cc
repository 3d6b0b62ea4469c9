#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/metrics/metrics.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::SeparableBlobs;
using ::spe::testing::XorClusters;

TEST(DecisionTreeTest, LearnsSeparableBlobs) {
  const Dataset train = SeparableBlobs(200, 200, 1);
  const Dataset test = SeparableBlobs(100, 100, 2);
  DecisionTree tree;
  tree.Fit(train);
  EXPECT_GT(AucPrc(test.labels(), tree.PredictProba(test)), 0.97);
}

TEST(DecisionTreeTest, LearnsXor) {
  const Dataset train = XorClusters(100, 1);
  const Dataset test = XorClusters(50, 2);
  DecisionTreeConfig config;
  config.max_depth = 4;
  DecisionTree tree(config);
  tree.Fit(train);
  EXPECT_GT(AucPrc(test.labels(), tree.PredictProba(test)), 0.97);
}

TEST(DecisionTreeTest, DepthZeroIsPrior) {
  DecisionTreeConfig config;
  config.max_depth = 0;
  DecisionTree tree(config);
  const Dataset train = SeparableBlobs(80, 20, 3);
  tree.Fit(train);
  EXPECT_EQ(tree.NumNodes(), 1u);
  const std::vector<double> point = {0.0, 0.0};
  EXPECT_NEAR(tree.PredictRow(point), 0.2, 1e-9);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  DecisionTreeConfig config;
  config.max_depth = 3;
  DecisionTree tree(config);
  tree.Fit(SeparableBlobs(300, 300, 4));
  EXPECT_LE(tree.Depth(), 3);
}

TEST(DecisionTreeTest, PureNodeBecomesLeafEarly) {
  Dataset data(1);
  for (int i = 0; i < 50; ++i) data.AddRow(std::vector<double>{double(i)}, 0);
  DecisionTree tree;
  tree.Fit(data);
  EXPECT_EQ(tree.NumNodes(), 1u);  // no impurity, no split
  const std::vector<double> x = {25.0};
  EXPECT_DOUBLE_EQ(tree.PredictRow(x), 0.0);
}

TEST(DecisionTreeTest, MinSamplesLeafLimitsSplits) {
  DecisionTreeConfig config;
  config.min_samples_leaf = 100;
  DecisionTree tree(config);
  const Dataset train = SeparableBlobs(90, 90, 5);  // 180 < 2 * 100
  tree.Fit(train);
  EXPECT_EQ(tree.NumNodes(), 1u);
}

TEST(DecisionTreeTest, SampleWeightsShiftLeafProbabilities) {
  // One feature, perfectly mixed labels; weights decide the leaf value.
  Dataset data(1);
  data.AddRow(std::vector<double>{0.0}, 0);
  data.AddRow(std::vector<double>{0.0}, 1);
  DecisionTree tree;
  tree.FitWeighted(data, {1.0, 3.0});
  const std::vector<double> x = {0.0};
  EXPECT_NEAR(tree.PredictRow(x), 0.75, 1e-9);
}

TEST(DecisionTreeTest, WeightZeroSamplesAreIgnoredInLeafValues) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) data.AddRow(std::vector<double>{0.0}, i < 5);
  std::vector<double> weights(10, 1.0);
  // Rows 0..4 are the positives; zeroing their weight must drive the
  // leaf probability to 0 as if they were absent.
  for (int i = 0; i < 5; ++i) weights[i] = 0.0;
  DecisionTree tree;
  tree.FitWeighted(data, weights);
  const std::vector<double> x = {0.0};
  EXPECT_NEAR(tree.PredictRow(x), 0.0, 1e-9);
}

TEST(DecisionTreeTest, EntropyCriterionAlsoLearns) {
  DecisionTreeConfig config;
  config.criterion = DecisionTreeConfig::Criterion::kEntropy;
  DecisionTree tree(config);
  const Dataset train = XorClusters(80, 6);
  tree.Fit(train);
  const Dataset test = XorClusters(40, 7);
  EXPECT_GT(AucPrc(test.labels(), tree.PredictProba(test)), 0.95);
}

TEST(DecisionTreeTest, DeterministicAcrossFits) {
  const Dataset train = SeparableBlobs(150, 50, 8);
  const Dataset test = SeparableBlobs(30, 30, 9);
  DecisionTree a;
  DecisionTree b;
  a.Fit(train);
  b.Fit(train);
  const auto pa = a.PredictProba(test);
  const auto pb = b.PredictProba(test);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

// NaN encodes a missing value. A column holding NaN must still give a
// well-defined split search: the same tree whatever the row order, the
// perfect finite split found, and NaN rows routed right — where the
// training partition counted them.
TEST(DecisionTreeTest, NanColumnFitsTheSameTreeForEveryRowOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<double, int>> rows;
  for (int x = 1; x <= 12; ++x) rows.emplace_back(x, x <= 7 ? 0 : 1);
  for (int i = 0; i < 3; ++i) rows.emplace_back(nan, 1);
  Rng rng(17);
  std::string first;
  for (int order = 0; order < 200; ++order) {
    rng.Shuffle(rows);
    Dataset data(1);
    for (const auto& [x, y] : rows) data.AddRow(std::vector<double>{x}, y);
    DecisionTree tree;
    tree.Fit(data);
    std::ostringstream model;
    tree.SaveModel(model);
    if (order == 0) first = model.str();
    ASSERT_EQ(model.str(), first) << "row order " << order;
    ASSERT_GT(tree.Depth(), 0) << "row order " << order;
    EXPECT_EQ(tree.PredictRow(std::vector<double>{nan}), 1.0);
    EXPECT_EQ(tree.PredictRow(std::vector<double>{7.0}), 0.0);
    EXPECT_EQ(tree.PredictRow(std::vector<double>{8.0}), 1.0);
  }
}

TEST(DecisionTreeTest, FeatureSubsamplingStillLearns) {
  DecisionTreeConfig config;
  config.max_features = 1;
  config.seed = 3;
  DecisionTree tree(config);
  const Dataset train = SeparableBlobs(200, 200, 10);
  tree.Fit(train);
  const Dataset test = SeparableBlobs(60, 60, 11);
  EXPECT_GT(AucPrc(test.labels(), tree.PredictProba(test)), 0.9);
}

TEST(DecisionTreeTest, CloneIsUntrainedWithSameConfig) {
  DecisionTreeConfig config;
  config.max_depth = 2;
  DecisionTree tree(config);
  tree.Fit(SeparableBlobs(50, 50, 12));
  auto clone = tree.Clone();
  const std::vector<double> x = {0.0, 0.0};
  EXPECT_DEATH(clone->PredictRow(x), "predict before fit");
}

// Property sweep: probabilities are valid on arbitrary data.
class TreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TreePropertyTest, PredictionsAreProbabilities) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Dataset data(3);
  for (int i = 0; i < 300; ++i) {
    data.AddRow(
        std::vector<double>{rng.Gaussian(), rng.Uniform(), rng.Gaussian(0, 5)},
        rng.Uniform() < 0.3 ? 1 : 0);
  }
  DecisionTree tree;
  tree.Fit(data);
  for (double p : tree.PredictProba(data)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace spe
