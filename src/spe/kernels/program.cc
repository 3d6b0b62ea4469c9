#include "spe/kernels/program.h"

#include <algorithm>
#include <utility>

#include "spe/common/check.h"

namespace spe {
namespace kernels {

FlatTreeBuilder::FlatTreeBuilder(FlatProgram& program)
    : program_(program), base_(program.pool.size()) {}

void FlatTreeBuilder::AddNode(int feature, double threshold, std::int32_t left,
                              std::int32_t right, double value) {
  NodePool& pool = program_.pool;
  const auto self = static_cast<std::int32_t>(pool.size());
  if (feature < 0) {
    // Leaf: park descents here forever. Feature 0 / threshold 0 are
    // read by the branch-free walk but cannot change the destination.
    pool.feature.push_back(0);
    pool.threshold.push_back(0.0);
    pool.left.push_back(self);
    pool.right.push_back(self);
  } else {
    pool.feature.push_back(feature);
    pool.threshold.push_back(threshold);
    pool.left.push_back(static_cast<std::int32_t>(base_) + left);
    pool.right.push_back(static_cast<std::int32_t>(base_) + right);
  }
  pool.value.push_back(value);
  local_.push_back(LocalNode{left, right, feature < 0});
}

std::int32_t FlatTreeBuilder::Finish() {
  SPE_CHECK(!local_.empty()) << "flat tree with no nodes";
  // Depth = the longest root-to-leaf path in steps; running the kernel
  // for exactly this many steps lands every row on a leaf.
  std::int32_t depth = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    const LocalNode& n = local_[static_cast<std::size_t>(node)];
    if (n.leaf) {
      depth = std::max(depth, d);
    } else {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  const auto index = static_cast<std::int32_t>(program_.trees.size());
  program_.trees.push_back(TreeRef{static_cast<std::int32_t>(base_), depth});
  return index;
}

namespace {

// Self-looping leaves (program.h) are the only nodes whose children
// point back at themselves, so this is an exact leaf test.
bool IsLeaf(const NodePool& pool, std::size_t i) {
  const auto self = static_cast<std::int32_t>(i);
  return pool.left[i] == self && pool.right[i] == self;
}

// Real node count of the tree rooted at `node` — leaves count once
// (they self-loop, so recursion must not follow their edges).
std::size_t CountNodes(const NodePool& pool, std::int32_t node) {
  const auto n = static_cast<std::size_t>(node);
  if (IsLeaf(pool, n)) return 1;
  return 1 + CountNodes(pool, pool.left[n]) + CountNodes(pool, pool.right[n]);
}

// Copies the subtree rooted at `node` into complete slot `c` at `level`.
// A leaf met above the bottom becomes a don't-care split whose entire
// subtree carries the leaf forward, so either routing direction —
// including the NaN right edge — reaches the same pool node at the
// bottom level.
void FillComplete(const NodePool& pool, std::int32_t node, std::size_t c,
                  std::int32_t level, std::int32_t depth, std::int32_t* feature,
                  double* threshold, double* value) {
  const auto n = static_cast<std::size_t>(node);
  const bool is_leaf = IsLeaf(pool, n);
  if (level == depth) {
    // Finish() guarantees every path parks on a leaf within `depth`
    // steps, so whatever arrives at the bottom level is one.
    SPE_CHECK(is_leaf);
    value[c - ((std::size_t(1) << depth) - 1)] = pool.value[n];
    return;
  }
  if (is_leaf) {
    feature[c] = 0;
    threshold[c] = 0.0;
    FillComplete(pool, node, 2 * c + 1, level + 1, depth, feature, threshold,
                 value);
    FillComplete(pool, node, 2 * c + 2, level + 1, depth, feature, threshold,
                 value);
    return;
  }
  feature[c] = pool.feature[n];
  threshold[c] = pool.threshold[n];
  FillComplete(pool, pool.left[n], 2 * c + 1, level + 1, depth, feature,
               threshold, value);
  FillComplete(pool, pool.right[n], 2 * c + 2, level + 1, depth, feature,
               threshold, value);
}

}  // namespace

CompleteProgram BuildCompleteProgram(const FlatProgram& program) {
  CompleteProgram out;
  out.trees.resize(program.trees.size());
  for (std::size_t t = 0; t < program.trees.size(); ++t) {
    const TreeRef& ref = program.trees[t];
    CompleteTree& tree = out.trees[t];
    tree.depth = ref.depth;
    if (ref.depth > kCompleteMaxDepth) continue;
    const std::size_t slots =
        (std::size_t(2) << static_cast<std::size_t>(ref.depth)) - 1;
    if (slots > kCompleteMaxExpansion * CountNodes(program.pool, ref.root)) {
      continue;  // sparse: padding would dwarf the tree
    }
    const std::size_t interior =
        (std::size_t(1) << static_cast<std::size_t>(ref.depth)) - 1;
    tree.node_base = out.feature.size();
    tree.leaf_base = out.value.size();
    out.feature.resize(tree.node_base + interior);
    out.threshold.resize(tree.node_base + interior);
    out.value.resize(tree.leaf_base + (slots - interior));
    FillComplete(program.pool, ref.root, 0, 0, ref.depth,
                 out.feature.data() + tree.node_base,
                 out.threshold.data() + tree.node_base,
                 out.value.data() + tree.leaf_base);
    tree.ok = true;
  }
  return out;
}

}  // namespace kernels
}  // namespace spe
