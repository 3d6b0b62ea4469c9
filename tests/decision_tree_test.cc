#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
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


// ------------------- Presorted split search exactness oracle ----------
//
// DecisionTree sorts each feature once per Fit and partitions the
// orders down the tree. This is the split search it replaced, kept
// verbatim apart from the node type: every node gathers its rows'
// (value, weight, label) per candidate feature and std::sorts them.
// The two must write the same model bytes and the same importances
// (which keep every chosen split's score, so they see a last-bit
// difference in a partial sum even where the tree does not). Distinct
// weights on tied values are where the order of tied rows reaches those
// bits; the presorted search must take the per-node sort's order there.
class ReferenceTree {
 public:
  explicit ReferenceTree(const DecisionTreeConfig& config) : config_(config) {}

  void Fit(const DatasetView& train, std::vector<double> w) {
    if (w.empty()) w.assign(train.num_rows(), 1.0);
    nodes_.clear();
    importances_.assign(train.num_features(), 0.0);
    std::vector<std::size_t> indices(train.num_rows());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    entries_.resize(train.num_rows());
    Rng rng(config_.seed);
    Build(train, w, indices, 0, indices.size(), 0, rng);
  }

  std::string Save() const {
    std::string out = "nodes " + std::to_string(nodes_.size()) + "\n";
    char line[160];
    for (const Node& n : nodes_) {
      std::snprintf(line, sizeof(line), "%d %.17g %d %d %.17g\n", n.feature,
                    n.threshold, n.left, n.right, n.value);
      out += line;
    }
    return out;
  }

  std::vector<double> Importances() const {
    std::vector<double> normalized = importances_;
    double sum = 0.0;
    for (double v : normalized) sum += v;
    if (sum > 0.0) {
      for (double& v : normalized) v /= sum;
    }
    return normalized;
  }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;
  };
  struct Entry {
    double value;
    double weight;
    int label;
  };

  static double Impurity(DecisionTreeConfig::Criterion criterion,
                         double total, double positive) {
    if (total <= 0.0) return 0.0;
    const double p = positive / total;
    if (criterion == DecisionTreeConfig::Criterion::kGini) {
      return 2.0 * p * (1.0 - p);
    }
    double h = 0.0;
    if (p > 0.0) h -= p * std::log2(p);
    if (p < 1.0) h -= (1.0 - p) * std::log2(1.0 - p);
    return h;
  }

  std::int32_t Build(const DatasetView& train, const std::vector<double>& w,
                     std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth, Rng& rng) {
    double total = 0.0;
    double positive = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      total += w[indices[i]];
      positive += w[indices[i]] * static_cast<double>(train.Label(indices[i]));
    }
    auto make_leaf = [&]() -> std::int32_t {
      Node leaf;
      leaf.value = total > 0.0 ? positive / total : 0.0;
      nodes_.push_back(leaf);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };
    const std::size_t count = end - begin;
    const double node_impurity = Impurity(config_.criterion, total, positive);
    if (count < config_.min_samples_split || depth >= config_.max_depth ||
        node_impurity == 0.0 || total <= 0.0) {
      return make_leaf();
    }
    std::vector<int> features;
    const int d = static_cast<int>(train.num_features());
    if (config_.max_features == 0 ||
        config_.max_features >= static_cast<std::size_t>(d)) {
      features.resize(static_cast<std::size_t>(d));
      std::iota(features.begin(), features.end(), 0);
    } else {
      for (std::size_t idx : rng.SampleWithoutReplacement(
               static_cast<std::size_t>(d), config_.max_features)) {
        features.push_back(static_cast<int>(idx));
      }
    }
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = std::numeric_limits<double>::infinity();
    for (int feature : features) {
      std::size_t ordered = 0;
      std::size_t tail = count;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t row = indices[begin + i];
        const double value = train.At(row, static_cast<std::size_t>(feature));
        entries_[std::isnan(value) ? --tail : ordered++] =
            Entry{value, w[row], train.Label(row)};
      }
      std::sort(entries_.begin(),
                entries_.begin() + static_cast<std::ptrdiff_t>(ordered),
                [](const Entry& a, const Entry& b) { return a.value < b.value; });
      double left_total = 0.0;
      double left_positive = 0.0;
      std::size_t left_count = 0;
      for (std::size_t i = 0; i + 1 < ordered; ++i) {
        left_total += entries_[i].weight;
        left_positive +=
            entries_[i].weight * static_cast<double>(entries_[i].label);
        ++left_count;
        if (entries_[i].value == entries_[i + 1].value) continue;
        if (left_count < config_.min_samples_leaf ||
            count - left_count < config_.min_samples_leaf) {
          continue;
        }
        const double right_total = total - left_total;
        const double right_positive = positive - left_positive;
        const double score =
            left_total * Impurity(config_.criterion, left_total, left_positive) +
            right_total *
                Impurity(config_.criterion, right_total, right_positive);
        if (score < best_score) {
          best_score = score;
          best_feature = feature;
          best_threshold = (entries_[i].value + entries_[i + 1].value) / 2.0;
        }
      }
    }
    if (best_feature < 0 || best_score >= total * node_impurity - 1e-12) {
      return make_leaf();
    }
    const auto split_feature = static_cast<std::size_t>(best_feature);
    auto middle = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) {
          return train.At(row, split_feature) <= best_threshold;
        });
    const auto mid = static_cast<std::size_t>(middle - indices.begin());
    if (mid == begin || mid == end) return make_leaf();
    importances_[split_feature] += total * node_impurity - best_score;
    nodes_.emplace_back();
    const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
    const std::int32_t left = Build(train, w, indices, begin, mid, depth + 1, rng);
    const std::int32_t right = Build(train, w, indices, mid, end, depth + 1, rng);
    nodes_[self] = Node{best_feature, best_threshold, left, right,
                        positive / total};
    return self;
  }

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importances_;
  std::vector<Entry> entries_;
};

// One randomized fitting problem: the data, the view the tree fits
// through, the weights and the config.
struct OracleCase {
  Dataset data{1};
  std::vector<std::size_t> view_rows;  // empty: identity view
  std::vector<double> weights;         // empty: unit weights
  DecisionTreeConfig config;

  DatasetView View() const {
    return view_rows.empty() ? DatasetView(data) : DatasetView(data, view_rows);
  }
};

enum class Shape {
  kUnitTies,         // unit weights, few distinct values per feature
  kWeightedDistinct, // non-unit weights, continuous values
  kNanColumns,       // NaN cells and all-NaN columns, some ties
  kBaggedView,       // an indexed view with duplicate rows
  kUniformWeights,   // AdaBoost's first stage: 1/n everywhere, ties
  kWeightedTies,     // distinct weights on tied values
};

OracleCase MakeOracleCase(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  static constexpr std::size_t kSizes[] = {1, 2, 3, 5, 9, 17, 40,
                                           100, 333, 1000, 2500};
  const std::size_t n = kSizes[rng.Index(std::size(kSizes))] + rng.Index(4);
  const std::size_t d = 1 + rng.Index(5);
  const bool ties = shape == Shape::kUnitTies ||
                    shape == Shape::kUniformWeights ||
                    shape == Shape::kWeightedTies ||
                    (shape != Shape::kWeightedDistinct && rng.Uniform() < 0.3);
  const double levels = static_cast<double>(2 + rng.Index(6));
  const double positive_rate = rng.Uniform(0.05, 0.6);

  OracleCase c;
  c.data = Dataset(d);
  const std::size_t stored = shape == Shape::kBaggedView ? 1 + n / 2 : n;
  std::vector<double> x(d);
  for (std::size_t i = 0; i < stored; ++i) {
    for (std::size_t f = 0; f < d; ++f) {
      x[f] = ties ? std::floor(rng.Uniform() * levels) : rng.Gaussian();
    }
    if (shape == Shape::kNanColumns) {
      for (std::size_t f = 0; f < d; ++f) {
        // Feature 0 is all NaN in half the cases; the rest are sparse.
        if ((f == 0 && seed % 2 == 0) || rng.Uniform() < 0.2) {
          x[f] = std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
    // Labels lean on feature 1 (or 0) so trees grow past the root.
    const double lean = std::isnan(x[d > 1 ? 1 : 0]) ? 0.0 : x[d > 1 ? 1 : 0];
    c.data.AddRow(x, rng.Uniform() < positive_rate + 0.1 * lean ? 1 : 0);
  }
  if (shape == Shape::kBaggedView) {
    c.view_rows.resize(n);
    for (std::size_t& r : c.view_rows) r = rng.Index(stored);
  }
  if (shape == Shape::kWeightedDistinct || shape == Shape::kWeightedTies) {
    c.weights.resize(n);
    // Some zero weights: rows that count for nothing, ties included.
    for (double& w : c.weights) {
      w = rng.Uniform() < 0.1 ? 0.0 : rng.Uniform(0.01, 3.0);
    }
  } else if (shape == Shape::kUniformWeights) {
    c.weights.assign(n, 1.0 / static_cast<double>(n));
  }

  c.config.criterion = rng.Uniform() < 0.5
                           ? DecisionTreeConfig::Criterion::kGini
                           : DecisionTreeConfig::Criterion::kEntropy;
  c.config.max_depth = static_cast<int>(rng.Index(13));
  c.config.min_samples_split = 2 + rng.Index(5);
  c.config.min_samples_leaf = rng.Uniform() < 0.5 ? 1 : 1 + rng.Index(8);
  c.config.max_features = d > 1 && rng.Uniform() < 0.4 ? 1 + rng.Index(d - 1) : 0;
  c.config.seed = seed;
  return c;
}

std::string SavedBytes(const DecisionTree& tree) {
  std::ostringstream os;
  tree.SaveModel(os);
  return os.str();
}

void ExpectSameTrees(Shape shape, int num_cases) {
  for (int i = 0; i < num_cases; ++i) {
    const std::uint64_t seed = 1000 * static_cast<std::uint64_t>(shape) + i;
    const OracleCase c = MakeOracleCase(shape, seed);
    const DatasetView view = c.View();
    DecisionTree tree(c.config);
    tree.FitWeighted(view, c.weights);
    ReferenceTree reference(c.config);
    reference.Fit(view, c.weights);
    ASSERT_EQ(SavedBytes(tree), reference.Save())
        << "shape " << static_cast<int>(shape) << " seed " << seed;
    ASSERT_EQ(tree.FeatureImportances(), reference.Importances())
        << "shape " << static_cast<int>(shape) << " seed " << seed;
  }
}

TEST(DecisionTreeOracleTest, UnitWeightsWithHeavyTies) {
  ExpectSameTrees(Shape::kUnitTies, 200);
}

TEST(DecisionTreeOracleTest, WeightedDistinctValues) {
  ExpectSameTrees(Shape::kWeightedDistinct, 200);
}

TEST(DecisionTreeOracleTest, NanColumns) {
  ExpectSameTrees(Shape::kNanColumns, 200);
}

TEST(DecisionTreeOracleTest, DuplicateRowsThroughAnIndexedView) {
  ExpectSameTrees(Shape::kBaggedView, 200);
}

TEST(DecisionTreeOracleTest, UniformWeightsWithTies) {
  ExpectSameTrees(Shape::kUniformWeights, 100);
}

// Distinct weights on tied values: the one case where the order of
// tied rows reaches the bits, so the search falls back to the per-node
// sort's order there.
TEST(DecisionTreeOracleTest, WeightedTies) {
  ExpectSameTrees(Shape::kWeightedTies, 300);
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
