#ifndef SPE_CLASSIFIERS_TREE_NODE_H_
#define SPE_CLASSIFIERS_TREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace spe {

/// One node of a fitted binary tree, as DecisionTree and
/// gbdt::RegressionTree store and persist it: internal when
/// feature >= 0 (x[feature] <= threshold goes left), a leaf holding
/// `value` otherwise.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;
};

/// Reads the node table both trees persist, "nodes N" and then N lines
/// of "feature threshold left right value", and checks that the table
/// is a tree a walk cannot leave:
///   - N is bounded by the stream's bytes left (a node line takes at
///     least 9) before anything is sized from it;
///   - an internal node's children come strictly after it and below N,
///     and no node is the child of two nodes (so no cycles, and a walk
///     visits each node at most once);
///   - a leaf is -1 -1 -1 (feature, left, right);
///   - an internal node's feature is below `num_features`.
/// Both tree fits emit children after their parent, so every tree this
/// library writes passes. Throws MalformedPayload naming `model`.
std::vector<TreeNode> ReadNodeTable(std::istream& is, std::size_t num_features,
                                    const char* model);

}  // namespace spe

#endif  // SPE_CLASSIFIERS_TREE_NODE_H_
