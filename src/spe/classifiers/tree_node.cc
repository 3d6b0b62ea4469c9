#include "spe/classifiers/tree_node.h"

#include <istream>
#include <string>

#include "spe/common/parse.h"

namespace spe {

std::vector<TreeNode> ReadNodeTable(std::istream& is, std::size_t num_features,
                                    const char* model) {
  const auto refuse = [model](const char* why) {
    throw MalformedPayload(std::string(model) + ": " + why);
  };
  std::string keyword;
  std::size_t count = 0;
  is >> keyword >> count;
  if (!is.good() || keyword != "nodes" || count == 0) refuse("malformed");
  if (count > BytesLeft(is) / 9) refuse("more nodes than its bytes hold");
  std::vector<TreeNode> nodes(count);
  for (TreeNode& n : nodes) {
    is >> n.feature >> n.threshold >> n.left >> n.right >> n.value;
  }
  if (is.fail()) refuse("truncated");

  std::vector<bool> has_parent(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    const TreeNode& n = nodes[i];
    if (n.feature < 0) {
      if (n.feature != -1 || n.left != -1 || n.right != -1) {
        refuse("leaf is not -1 -1 -1");
      }
      continue;
    }
    if (static_cast<std::size_t>(n.feature) >= num_features) {
      refuse("split feature past the row");
    }
    for (const std::int32_t child : {n.left, n.right}) {
      if (child <= static_cast<std::int64_t>(i) ||
          static_cast<std::size_t>(child) >= count ||
          has_parent[static_cast<std::size_t>(child)]) {
        refuse("child index breaks the tree");
      }
      has_parent[static_cast<std::size_t>(child)] = true;
    }
  }
  return nodes;
}

}  // namespace spe
