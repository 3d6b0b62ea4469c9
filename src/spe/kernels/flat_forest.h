#ifndef SPE_KERNELS_FLAT_FOREST_H_
#define SPE_KERNELS_FLAT_FOREST_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>

#include "spe/kernels/program.h"

namespace spe {

class Classifier;
class DatasetView;
class VotingEnsemble;

namespace kernels {

/// Process-wide kernel switch. Defaults to on; the environment variable
/// SPE_FLAT_KERNEL=0|off|false disables it at startup (same grammar as
/// SPE_OBS), and benches flip it at runtime to measure the reference
/// path and the kernel in one process. When off, VotingEnsemble scores
/// with the reference member loop — results are bit-identical either
/// way, so this knob only changes speed.
bool FlatKernelEnabled();
void SetFlatKernelEnabled(bool enabled);

/// A voting ensemble compiled for batch inference: every member's trees
/// flattened into one structure-of-arrays node pool plus a member
/// program (see spe/kernels/program.h), walked by a blocked row×tree
/// kernel. The kernel reproduces the reference scoring loop
/// (VotingEnsemble::PredictProbaPrefix) bit-for-bit: members accumulate
/// in index order, GBDT members replay base + lr·leaf per tree then the
/// same sigmoid, and NaN feature values take the right edge exactly
/// like the reference `x <= threshold` comparison. What changes is the
/// memory traffic: zero per-member temporaries, contiguous node
/// storage, and 256-row blocks whose descent steps are independent, so
/// the CPU overlaps the tree-walk loads instead of serializing on one
/// row's pointer chase.
///
/// Each tree descends by one of two walks over the same double
/// thresholds, chosen per tree from facts the compiler can observe: the
/// complete-tree relayout (CompleteProgram — implicit children, three
/// loads per step) for trees within its depth and padding caps, and the
/// pooled node walk for the rest. Both compute the reference `x <=
/// threshold` comparison on the same bits, so which walk a tree takes
/// never changes a result. This is the one scoring path: other
/// representations (float, uint8 bin ranks, SIMD gathers) were measured
/// and removed because none beat it (docs/performance.md, "Deleted
/// paths"). The relayout is derived lazily on first use and cached per
/// forest.
class FlatForest {
 public:
  /// Lowers every member of `ensemble` (discovered via FlatCompilable)
  /// into one program. Returns nullptr when the ensemble is empty or
  /// any member cannot lower — callers fall back to the reference loop.
  static std::unique_ptr<const FlatForest> Compile(
      const VotingEnsemble& ensemble);

  /// Lowers `ensemble` into a kGroup member op of an enclosing program.
  /// This is how nested tree-backed ensembles (a RandomForest member
  /// inside an SPE forest) compile: the wrapper's FlatCompilable
  /// delegates here. Returns false when any member cannot lower; the
  /// program is then abandoned by the caller.
  static bool LowerEnsemble(const VotingEnsemble& ensemble,
                            FlatProgram& program, MemberOp& op);

  /// Mean probability over the first min(k, num_members()) members for
  /// every row of `data`, written to `out` (size must equal
  /// data.num_rows()). Bit-identical to the reference PredictProbaPrefix
  /// for any thread count. Requires k >= 1.
  ///
  /// Row-major views (the serve batch path) feed the walks a direct
  /// pointer; columnar views are staged block-by-block into a reused
  /// per-thread row-major buffer (L1-resident, counted as scratch
  /// traffic). Staging copies values verbatim, so both feeds are
  /// bit-identical.
  void PredictPrefixInto(const DatasetView& data, std::size_t k,
                         std::span<double> out) const;

  std::size_t num_members() const { return program_.members.size(); }
  std::size_t num_trees() const { return program_.trees.size(); }
  std::size_t num_nodes() const { return program_.pool.size(); }

 private:
  FlatForest() = default;

  const CompleteProgram& Complete() const;

  FlatProgram program_;
  // The relayout, built on first use. Mutable + call_once: a compiled
  // forest is logically immutable and shared by concurrent serve
  // workers, so the lazy build must be thread-safe.
  mutable std::once_flag complete_once_;
  mutable CompleteProgram complete_;
};

/// The batch-scoring path `model` takes right now: "flat" (a compiled
/// program) or "reference" (no compiled program — the capability is
/// missing, a member failed to lower, or the kernel is disabled).
/// Answers via the FlatScorable capability, compiling lazily if needed.
/// Benches and the serving layer stamp this into their reports so runs
/// are comparable.
const char* ActiveKernel(const Classifier& model);

}  // namespace kernels
}  // namespace spe

#endif  // SPE_KERNELS_FLAT_FOREST_H_
