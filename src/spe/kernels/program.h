#ifndef SPE_KERNELS_PROGRAM_H_
#define SPE_KERNELS_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spe {
namespace kernels {

/// Structure-of-arrays node pool shared by every tree of a compiled
/// forest. One contiguous allocation per field instead of one AoS node
/// array per tree: the predict kernel streams `feature`/`threshold`/
/// `left`/`right` with unit-stride loads while a row block descends,
/// and reads `value` only at the leaves.
///
/// Leaves are stored self-looping (left == right == own index, feature
/// 0, threshold 0): a walk that has reached a leaf stays there under
/// further descent steps — including for NaN inputs, which take the
/// `right` edge exactly like the reference `x <= threshold` comparison —
/// so the kernel can run a fixed, branch-free number of steps per tree.
struct NodePool {
  std::vector<std::int32_t> feature;
  std::vector<double> threshold;
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  std::vector<double> value;

  std::size_t size() const { return feature.size(); }
};

/// One compiled tree: its root in the pool and the number of descent
/// steps that guarantees every input has reached (and parked on) a leaf.
struct TreeRef {
  std::int32_t root = 0;
  std::int32_t depth = 0;
};

/// One ensemble member lowered to kernel form. The three kinds cover
/// every tree-backed model in this library; anything else fails to
/// lower and the ensemble keeps the reference scoring loop.
struct MemberOp {
  enum class Kind {
    kTree,        ///< single decision tree: value = leaf value
    kBoostLogit,  ///< GBDT: value = sigmoid(base + sum lr * leaf), tree order
    kGroup,       ///< nested voting ensemble: value = mean of children
  };

  Kind kind = Kind::kTree;
  std::int32_t tree_begin = 0;  ///< [tree_begin, tree_end) into FlatProgram::trees
  std::int32_t tree_end = 0;
  double base_score = 0.0;     ///< kBoostLogit prior log-odds
  double learning_rate = 0.0;  ///< kBoostLogit shrinkage
  std::vector<MemberOp> children;  ///< kGroup only
};

/// A voting ensemble lowered to one node pool plus a member program.
/// Members are stored in ensemble index order, which is what lets the
/// kernel honor the prefix-scoring (graceful degradation) contract: the
/// first k members of the program are exactly the first k members of
/// the ensemble.
struct FlatProgram {
  NodePool pool;
  std::vector<TreeRef> trees;
  std::vector<MemberOp> members;
};

/// Appends one tree to a program. Callers push nodes in their native
/// storage order with tree-local child indices (matching the Node
/// layout of DecisionTree / gbdt::RegressionTree, root at local index
/// 0); the builder rewrites children to pool-global indices, converts
/// leaves (feature < 0) to the self-looping form, and computes the
/// guaranteed-leaf depth on Finish.
class FlatTreeBuilder {
 public:
  explicit FlatTreeBuilder(FlatProgram& program);

  void AddNode(int feature, double threshold, std::int32_t left,
               std::int32_t right, double value);

  /// Seals the tree and returns its index in FlatProgram::trees.
  /// Requires at least one node.
  std::int32_t Finish();

 private:
  struct LocalNode {
    std::int32_t left;
    std::int32_t right;
    bool leaf;
  };

  FlatProgram& program_;
  std::size_t base_;  // pool size when this tree started
  std::vector<LocalNode> local_;
};

/// Implicit-children ("complete") relayout of a tree: node at slot c has
/// its children at 2c+1 / 2c+2, so descent needs no left/right loads —
/// the index update is pure arithmetic. That matters because the pooled
/// walk is load-port bound: five loads per step (feature, threshold,
/// left, right, row value) put its floor at ~2.5 cycles/step on a
/// 2-load/cycle core, while the complete walk's three put it near 1.5.
///
/// Each qualifying tree is padded to its full depth: an interior slot
/// whose pool node is a leaf becomes a don't-care split (feature 0,
/// threshold 0) with the leaf replicated across its whole subtree, so
/// every row routes — in either direction, including the NaN right-edge
/// — to a bottom slot holding the same pool leaf. After exactly `depth`
/// steps the slot index lands in the bottom level, where `value` holds
/// that pool leaf's exact value: the walk returns leaf values directly,
/// skipping the slot→node→value double indirection, and stays
/// byte-identical with the reference.
///
/// Trees relayout only when depth <= kCompleteMaxDepth and the padded
/// slot count stays within kCompleteMaxExpansion x the tree's real node
/// count. Padding never slows the walk — it runs a fixed `depth` steps
/// either way — so both limits are purely memory guards: the depth cap
/// bounds one tree at ~128 KiB of slots, and the expansion cap keeps a
/// forest of them cache-resident. Real forests sit well inside it
/// (depth-10 trees on ~2k-row samples run ~5x; a degenerate chain would
/// run into the hundreds), and excluded trees keep the pooled descent
/// (per-tree `ok`).
inline constexpr std::int32_t kCompleteMaxDepth = 12;
inline constexpr std::size_t kCompleteMaxExpansion = 24;

struct CompleteTree {
  bool ok = false;
  std::int32_t depth = 0;      ///< descent steps (== TreeRef::depth)
  std::size_t node_base = 0;   ///< into CompleteProgram::feature/threshold
  std::size_t leaf_base = 0;   ///< into CompleteProgram::value
};

struct CompleteProgram {
  std::vector<CompleteTree> trees;     ///< parallel to FlatProgram::trees
  std::vector<std::int32_t> feature;   ///< interior slots, level order
  std::vector<double> threshold;       ///< interior slots, level order
  std::vector<double> value;           ///< bottom slot -> pool leaf value
};

CompleteProgram BuildCompleteProgram(const FlatProgram& program);

/// Capability interface for the flat-inference compiler, discovered via
/// dynamic_cast exactly like PrefixVoter is by the serving layer: a
/// fitted classifier that can lower itself into a FlatProgram member op
/// implements it; ensembles compile when every member does and fall
/// back to the reference loop otherwise.
class FlatCompilable {
 public:
  virtual ~FlatCompilable() = default;

  /// Appends this model's trees to `program` and fills `op` with the
  /// member program that reproduces PredictProba bit-for-bit. Returns
  /// false when the current (e.g. unfitted) state has no flat lowering;
  /// the caller then abandons the whole program.
  virtual bool LowerToFlat(FlatProgram& program, MemberOp& op) const = 0;
};

}  // namespace kernels
}  // namespace spe

#endif  // SPE_KERNELS_PROGRAM_H_
