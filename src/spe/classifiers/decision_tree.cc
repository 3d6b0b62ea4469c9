#include "spe/classifiers/decision_tree.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "spe/common/check.h"

namespace spe {
namespace {

// Impurity of a (weight_total, weight_positive) node.
double Impurity(DecisionTreeConfig::Criterion criterion, double total,
                double positive) {
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

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted child impurity
};

}  // namespace

// Split-finding scratch, allocated once per Fit and shared by every
// node: 4d + 9 bytes per fitted row with `indices`. Each feature is
// sorted once; a node's rows then fill the same range [begin, end) of
// `indices` and of every feature's order, so a node scans its segment
// in place and a split stably partitions the segments into its
// children's (SLIQ/SPRINT presorting: Mehta et al., EDBT 1996; Shafer
// et al., VLDB 1996).
struct DecisionTree::BuildScratch {
  std::size_t num_rows = 0;
  // order[f * num_rows + i]: row positions by feature f's value, finite
  // values ascending (ties in ascending row order), NaNs last.
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> goes_left;  // per row: side of the last split
  // Right rows during a partition; a node's rows in per-node sort order
  // when tied values carry different weights (Build).
  std::vector<std::uint32_t> spill;
  std::vector<int> features;            // candidate features for the node
};

DecisionTree::DecisionTree(const DecisionTreeConfig& config) : config_(config) {}

void DecisionTree::Fit(const DatasetView& train) { FitWeighted(train, {}); }

void DecisionTree::FitWeighted(const DatasetView& train,
                               const std::vector<double>& weights) {
  train.CheckAlive();
  const std::size_t n = train.num_rows();
  SPE_CHECK_GT(n, 0u);
  if (!weights.empty()) {
    SPE_CHECK_EQ(weights.size(), n);
  }
  // Row positions live in 4 bytes.
  SPE_CHECK_LE(n, std::size_t{std::numeric_limits<std::uint32_t>::max()})
      << "DecisionTree indexes its training rows in 32 bits";

  nodes_.clear();
  const std::size_t d = train.num_features();
  importances_.assign(d, 0.0);
  BuildScratch scratch;
  scratch.num_rows = n;
  scratch.order.resize(d * n);
  {
    // One column at a time, gathered so the sort compares contiguous
    // values; freed before the per-row buffers below are allocated.
    std::vector<double> column(n);
    for (std::size_t f = 0; f < d; ++f) {
      // NaN (a missing value) sorts last: `<` is a strict weak order
      // only without NaN, so only the finite prefix is sorted, and
      // thresholds come from it alone.
      std::uint32_t* order = scratch.order.data() + f * n;
      std::size_t finite = 0;
      std::size_t tail = n;
      for (std::uint32_t row = 0; row < n; ++row) {
        column[row] = train.At(row, f);
        order[std::isnan(column[row]) ? --tail : finite++] = row;
      }
      std::sort(order, order + finite, [&](std::uint32_t a, std::uint32_t b) {
        return column[a] < column[b] || (column[a] == column[b] && a < b);
      });
    }
  }
  scratch.goes_left.resize(n);
  scratch.spill.resize(n);
  std::vector<std::uint32_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::uint32_t{0});
  Rng rng(config_.seed);
  Build(train, weights, indices, 0, n, /*depth=*/0, scratch, rng);
}

std::int32_t DecisionTree::Build(const DatasetView& train,
                                 std::span<const double> weights,
                                 std::vector<std::uint32_t>& indices,
                                 std::size_t begin, std::size_t end, int depth,
                                 BuildScratch& scratch, Rng& rng) {
  // Unit-weight fits read no weight vector.
  const auto weight = [&](std::size_t row) {
    return weights.empty() ? 1.0 : weights[row];
  };
  double total = 0.0;
  double positive = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double w = weight(indices[i]);
    total += w;
    positive += w * static_cast<double>(train.Label(indices[i]));
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

  // Choose which features to evaluate at this node.
  std::vector<int>& features = scratch.features;
  features.clear();
  const int d = static_cast<int>(train.num_features());
  if (config_.max_features == 0 ||
      config_.max_features >= static_cast<std::size_t>(d)) {
    features.resize(static_cast<std::size_t>(d));
    std::iota(features.begin(), features.end(), 0);
  } else {
    for (std::size_t idx :
         rng.SampleWithoutReplacement(static_cast<std::size_t>(d),
                                      config_.max_features)) {
      features.push_back(static_cast<int>(idx));
    }
  }

  // Scans `rows`, the node's rows by ascending value of `feature` with
  // NaN rows last, into `best`: the first strictly lower score wins, in
  // feature order and then value order. NaN rows count on the right,
  // where `x <= threshold` being false sends them at predict time.
  // Returns false, leaving `best` as it was, on meeting tied values of
  // different weights when `check_ties` is set.
  SplitCandidate best;
  const auto scan = [&](const std::uint32_t* rows, int feature,
                        bool check_ties) {
    const auto column = static_cast<std::size_t>(feature);
    SplitCandidate found;
    double left_total = 0.0;
    double left_positive = 0.0;
    std::size_t left_count = 0;
    double value = train.At(rows[0], column);
    for (std::size_t i = 0; i + 1 < count && !std::isnan(value); ++i) {
      const double w = weight(rows[i]);
      left_total += w;
      left_positive += w * static_cast<double>(train.Label(rows[i]));
      ++left_count;
      const double next = train.At(rows[i + 1], column);
      if (std::isnan(next)) break;
      // Can only split between distinct feature values.
      if (next == value) {
        if (check_ties && weight(rows[i + 1]) != w) return false;
        continue;
      }
      if (left_count >= config_.min_samples_leaf &&
          count - left_count >= config_.min_samples_leaf) {
        const double right_total = total - left_total;
        const double right_positive = positive - left_positive;
        const double score =
            left_total * Impurity(config_.criterion, left_total, left_positive) +
            right_total *
                Impurity(config_.criterion, right_total, right_positive);
        if (score < found.score) {
          found.score = score;
          found.feature = feature;
          found.threshold = (value + next) / 2.0;
        }
      }
      value = next;
    }
    if (found.score < best.score) best = found;
    return true;
  };
  const std::size_t n = scratch.num_rows;
  for (int feature : features) {
    const auto column = static_cast<std::size_t>(feature);
    if (scan(scratch.order.data() + column * n + begin, feature,
             !weights.empty())) {
      continue;
    }
    // Tied values with different weights: the partial sums depend on the
    // order of the tied rows, and the trees must be those of a per-node
    // gather-and-sort search (DecisionTreeOracleTest). Rows gathered in
    // `indices` order (NaN rows to the tail) and std::sorted by value
    // alone are permuted exactly as that search's (value, weight, label)
    // entries: the sort's moves follow its comparisons, which see the
    // same values.
    std::uint32_t* sorted = scratch.spill.data();
    std::size_t ordered = 0;
    std::size_t tail = count;
    for (std::size_t i = begin; i < end; ++i) {
      sorted[std::isnan(train.At(indices[i], column)) ? --tail : ordered++] =
          indices[i];
    }
    std::sort(sorted, sorted + ordered, [&](std::uint32_t a, std::uint32_t b) {
      return train.At(a, column) < train.At(b, column);
    });
    scan(sorted, feature, /*check_ties=*/false);
  }

  // No usable split (all candidate features constant) or no impurity
  // reduction: stop here.
  if (best.feature < 0 || best.score >= total * node_impurity - 1e-12) {
    return make_leaf();
  }

  // Partition indices in place around the chosen split.
  const auto split_feature = static_cast<std::size_t>(best.feature);
  auto middle = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::uint32_t row) {
        return train.At(row, split_feature) <= best.threshold;
      });
  const auto mid =
      static_cast<std::size_t>(middle - indices.begin());
  // The threshold is a midpoint between two distinct sorted values, so
  // both sides are guaranteed non-empty; defensive check regardless.
  if (mid == begin || mid == end) return make_leaf();

  importances_[split_feature] += total * node_impurity - best.score;

  // Children that may split again need their rows in every feature's
  // order: the split feature's segment already has its left rows first
  // (they are its values <= threshold); every other segment is stably
  // partitioned, so each child keeps its value order.
  if (depth + 1 < config_.max_depth) {
    for (std::size_t i = begin; i < end; ++i) {
      scratch.goes_left[indices[i]] = i < mid ? 1 : 0;
    }
    for (std::size_t f = 0; f < static_cast<std::size_t>(d); ++f) {
      if (f == split_feature) continue;
      std::uint32_t* order = scratch.order.data() + f * n;
      std::size_t kept = begin;
      std::size_t spilled = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t row = order[i];
        if (scratch.goes_left[row] != 0) {
          order[kept++] = row;
        } else {
          scratch.spill[spilled++] = row;
        }
      }
      std::copy_n(scratch.spill.begin(), spilled, order + kept);
    }
  }

  // Reserve our slot before recursing (children get later indices).
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left =
      Build(train, weights, indices, begin, mid, depth + 1, scratch, rng);
  const std::int32_t right =
      Build(train, weights, indices, mid, end, depth + 1, scratch, rng);
  nodes_[self].feature = best.feature;
  nodes_[self].threshold = best.threshold;
  nodes_[self].left = left;
  nodes_[self].right = right;
  nodes_[self].value = positive / total;
  return self;
}

double DecisionTree::PredictRow(std::span<const double> x) const {
  SPE_CHECK(!nodes_.empty()) << "predict before fit";
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

double DecisionTree::PredictViewRow(const DatasetView& data,
                                    std::size_t row) const {
  SPE_CHECK(!nodes_.empty()) << "predict before fit";
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = data.At(row, static_cast<std::size_t>(n.feature)) <= n.threshold
               ? n.left
               : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

int DecisionTree::Depth() const {
  SPE_CHECK(!nodes_.empty());
  // Iterative depth computation over the node array.
  std::vector<std::pair<std::int32_t, int>> stack = {{0, 0}};
  int depth = 0;
  while (!stack.empty()) {
    auto [node, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return depth;
}

std::unique_ptr<Classifier> DecisionTree::Clone() const {
  return std::make_unique<DecisionTree>(config_);
}

bool DecisionTree::LowerToFlat(kernels::FlatProgram& program,
                               kernels::MemberOp& op) const {
  if (nodes_.empty()) return false;
  kernels::FlatTreeBuilder builder(program);
  for (const Node& n : nodes_) {
    builder.AddNode(n.feature, n.threshold, n.left, n.right, n.value);
  }
  const std::int32_t tree = builder.Finish();
  op.kind = kernels::MemberOp::Kind::kTree;
  op.tree_begin = tree;
  op.tree_end = tree + 1;
  return true;
}

std::vector<double> DecisionTree::FeatureImportances() const {
  SPE_CHECK(!nodes_.empty()) << "importances before fit";
  std::vector<double> normalized = importances_;
  double sum = 0.0;
  for (double v : normalized) sum += v;
  if (sum > 0.0) {
    for (double& v : normalized) v /= sum;
  }
  return normalized;
}

void DecisionTree::SaveModel(std::ostream& os) const {
  SPE_CHECK(!nodes_.empty()) << "cannot save an unfitted tree";
  // std::to_chars(general, 17) is specified to format exactly as printf
  // %.17g, which is byte-identical to the old `os << double` at
  // max_digits10 precision — but ~4x faster, and batching into one
  // string skips the per-field stream machinery. This path matters:
  // trees are serialized once per member on every checkpointed training
  // run, where formatting was the dominant cost (docs/robustness.md).
  std::string out;
  out.reserve(64 + nodes_.size() * 64);
  char line[160];
  std::snprintf(line, sizeof(line), "nodes %zu\n", nodes_.size());
  out += line;
  for (const Node& n : nodes_) {
    char* p = line;
    const auto put_int = [&p](std::int64_t v) {
      p = std::to_chars(p, p + 24, v).ptr;
      *p++ = ' ';
    };
    const auto put_double = [&p](double v) {
      p = std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
      *p++ = ' ';
    };
    put_int(n.feature);
    put_double(n.threshold);
    put_int(n.left);
    put_int(n.right);
    put_double(n.value);
    p[-1] = '\n';  // the line's last separator becomes its newline
    out.append(line, static_cast<std::size_t>(p - line));
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

DecisionTree DecisionTree::LoadModel(std::istream& is,
                                     std::size_t num_features) {
  DecisionTree tree;
  tree.nodes_ = ReadNodeTable(is, num_features, "tree model");
  return tree;
}

}  // namespace spe
