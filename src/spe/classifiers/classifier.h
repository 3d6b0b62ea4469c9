#ifndef SPE_CLASSIFIERS_CLASSIFIER_H_
#define SPE_CLASSIFIERS_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "spe/data/dataset.h"
#include "spe/kernels/program.h"

namespace spe {

namespace kernels {
class FlatForest;
}

namespace internal {
struct FlatKernelCache;
}

/// Abstract binary probabilistic classifier.
///
/// This is the "canonical classifier" abstraction of the paper: anything
/// with Fit / PredictProba can be wrapped by SPE and by every baseline
/// imbalance method (§I: "our methods can be easily adapted to most of
/// existing learning methods"). Implementations are value-like objects
/// configured at construction; Clone() produces a fresh *untrained* copy
/// with the same configuration, which is how ensemble trainers stamp out
/// their base models.
class Classifier {
 public:
  virtual ~Classifier();

  /// Trains on the viewed rows, replacing any previous model. Dataset
  /// converts implicitly, so `clf.Fit(data)` keeps reading naturally;
  /// ensemble trainers pass index views and train with zero row copies.
  virtual void Fit(const DatasetView& train) = 0;

  /// Trains with per-example weights (same length as `train`). Only
  /// meaningful for implementations where SupportsSampleWeights() is
  /// true; the default aborts, because silently ignoring the weights
  /// would corrupt boosting algorithms built on top.
  virtual void FitWeighted(const DatasetView& train,
                           const std::vector<double>& weights);
  virtual bool SupportsSampleWeights() const { return false; }

  /// Probability that `x` belongs to the positive (minority) class.
  /// Must be in [0, 1]. Only valid after Fit.
  virtual double PredictRow(std::span<const double> x) const = 0;

  /// PredictRow for row `row` of a view. The default gathers the row
  /// into per-thread scratch and calls PredictRow (bit-identical: same
  /// values, same arithmetic); models that can walk columnar storage
  /// directly — tree descent touches a handful of features per row —
  /// override it to skip the gather entirely.
  virtual double PredictViewRow(const DatasetView& data, std::size_t row) const;

  /// Batched prediction; the default loops over PredictViewRow,
  /// classifiers with cheaper batch paths override it. A row's
  /// probability must not depend on the other rows of the batch, and
  /// concurrent calls on one model must be safe: serving batches rows
  /// arbitrarily across workers, and SelfPacedEnsemble scores its
  /// majority set in blocks on several threads at once, and both rely
  /// on the same bits as one whole batch.
  virtual std::vector<double> PredictProba(const DatasetView& data) const;

  /// Adds this model's batch probabilities element-wise into `acc`
  /// (acc[i] += p[i], acc.size() == data.num_rows()). This is how
  /// VotingEnsemble reduces members without materializing a per-member
  /// probability vector: the default streams PredictViewRow straight
  /// into the accumulator, which is the fused form of the reference
  /// PredictProba-then-add and bit-identical to it. Any class that
  /// overrides PredictProba with a different batch computation MUST
  /// also override this (typically via AccumulateViaPredictProba) so
  /// the accumulated bits keep matching its PredictProba.
  virtual void AccumulateProbaInto(const DatasetView& data,
                                   std::span<double> acc) const;

  /// Fresh untrained copy with identical configuration.
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  /// Re-seeds any internal randomness (weight init, shuffling, feature
  /// subsampling). Ensemble trainers call this on cloned members so the
  /// ensemble is diverse even when every member sees similar data.
  /// No-op for deterministic models.
  virtual void Reseed(std::uint64_t /*seed*/) {}

  /// Short name for tables/logs, e.g. "DT", "GBDT10".
  virtual std::string Name() const = 0;

 protected:
  /// AccumulateProbaInto implementation for classes with a custom
  /// PredictProba: scores through the override (one temporary, exactly
  /// the reference arithmetic) and adds element-wise.
  void AccumulateViaPredictProba(const DatasetView& data,
                                 std::span<double> acc) const;
};

/// Averages the probability outputs of an arbitrary set of trained
/// classifiers: F(x) = (1/n) * sum f_m(x) — the combination rule used by
/// SPE (Algorithm 1 line 12) and the bagging-style baselines.
class VotingEnsemble {
 public:
  VotingEnsemble();
  ~VotingEnsemble();
  VotingEnsemble(VotingEnsemble&& other) noexcept;
  VotingEnsemble& operator=(VotingEnsemble&& other) noexcept;

  void Add(std::unique_ptr<Classifier> member);
  /// Drops members past the first `size` (prefix selection, e.g. after
  /// validation-monitored training). No-op when size >= size().
  void Truncate(std::size_t size);
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const Classifier& member(std::size_t i) const { return *members_[i]; }

  /// Mean member probability for each row. Requires at least one member.
  std::vector<double> PredictProba(const DatasetView& data) const;

  /// Mean probability over only the first min(k, size()) members —
  /// the full hypothesis truncated to an ensemble prefix. Because the
  /// combination rule is a plain average, the prefix is itself a valid
  /// (coarser) SPE hypothesis, which makes it a principled
  /// graceful-degradation knob: an overloaded server can score with
  /// k < n members and pay proportionally less compute. Requires k >= 1.
  std::vector<double> PredictProbaPrefix(const DatasetView& data,
                                         std::size_t k) const;

  /// PredictProbaPrefix written into `out` (out.size() ==
  /// data.num_rows()) instead of a new vector; the same bits.
  void PredictProbaPrefixInto(const DatasetView& data, std::size_t k,
                              std::span<double> out) const;

  /// Mean member probability for a single row.
  double PredictRow(std::span<const double> x) const;

  /// The flat-inference program compiled from the current member list
  /// (see spe/kernels/flat_forest.h), or nullptr when any member cannot
  /// lower (non-tree members) or the kernel is disabled. Compiles
  /// lazily on first use and caches until the member list changes;
  /// thread-safe, so concurrent serve workers share one compile.
  const kernels::FlatForest* flat_kernel() const;

 private:
  /// Drops any compiled program; called whenever members_ changes.
  void InvalidateFlatKernel();

  std::vector<std::unique_ptr<Classifier>> members_;
  mutable std::unique_ptr<internal::FlatKernelCache> flat_cache_;
};

/// Implemented by models whose hypothesis is an average over ordered
/// members and which can therefore answer with a member prefix (see
/// VotingEnsemble::PredictProbaPrefix). The serving layer discovers the
/// capability via dynamic_cast; plain classifiers simply don't have it.
class PrefixVoter {
 public:
  virtual ~PrefixVoter() = default;

  /// Members available for prefix scoring (the full-ensemble size).
  virtual std::size_t NumPrefixMembers() const = 0;

  /// Probabilities from the first min(k, NumPrefixMembers()) members.
  /// Requires k >= 1 and a fitted model.
  virtual std::vector<double> PredictProbaPrefix(const DatasetView& data,
                                                 std::size_t k) const = 0;
};

/// The one mean-vote classifier: F(x) = (1/n) * sum f_m(x) over the
/// trained members in `ensemble_`. SelfPacedEnsemble, every
/// bagging-style baseline and the loaded VotingEnsembleModel derive from
/// it and add only their training; how a mean-vote ensemble scores,
/// answers member prefixes, lowers into the flat kernel and persists
/// (SaveClassifier writes members()) is defined here, once.
class VotingClassifier : public Classifier,
                         public PrefixVoter,
                         public kernels::FlatCompilable {
 public:
  double PredictRow(std::span<const double> x) const final;
  std::vector<double> PredictProba(const DatasetView& data) const final;
  /// PredictProba averages the members, so the fused default
  /// (PredictRow streaming) would change the bits; this adds the batch
  /// path's result instead.
  void AccumulateProbaInto(const DatasetView& data,
                           std::span<double> acc) const final;

  /// PrefixVoter: the mean over the first min(k, n) members is itself a
  /// valid, coarser hypothesis — the serving layer's overload knob.
  std::size_t NumPrefixMembers() const final { return ensemble_.size(); }
  std::vector<double> PredictProbaPrefix(const DatasetView& data,
                                         std::size_t k) const final;

  /// FlatCompilable: the members lower as one kGroup op, which is how a
  /// tree-backed ensemble nested in another one compiles.
  bool LowerToFlat(kernels::FlatProgram& program,
                   kernels::MemberOp& op) const final;

  std::size_t NumMembers() const { return ensemble_.size(); }

  /// The trained members: persistence, inspection, and the compiled
  /// program batch scoring rides (members().flat_kernel()).
  const VotingEnsemble& members() const { return ensemble_; }

 protected:
  VotingClassifier() = default;
  explicit VotingClassifier(VotingEnsemble ensemble)
      : ensemble_(std::move(ensemble)) {}

  VotingEnsemble ensemble_;
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_CLASSIFIER_H_
