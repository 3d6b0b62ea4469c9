#ifndef SPE_CORE_SELF_PACED_ENSEMBLE_H_
#define SPE_CORE_SELF_PACED_ENSEMBLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/classifiers/training_observer.h"
#include "spe/checkpoint/checkpoint.h"
#include "spe/core/hardness.h"

namespace spe {

class Rng;

/// How the self-paced factor alpha evolves across iterations. kTan is the
/// paper's schedule; the others are ablations (DESIGN.md §4.1) isolating
/// what the schedule itself contributes.
enum class AlphaSchedule {
  kTan,       // alpha_i = tan((i-1)/(n-1) * pi/2): 0 first, inf last
  kZero,      // pure hardness harmonize in every iteration (Fig. 3b)
  kInfinity,  // pure uniform-over-bins from the start (Fig. 3d)
  kLinear,    // alpha grows linearly 0 -> 10
};

struct SelfPacedEnsembleConfig {
  std::size_t n_estimators = 10;  // "SPE10" everywhere in the paper
  std::size_t num_bins = 20;      // k; the paper's default (§VI footnote 3)
  HardnessKind hardness = HardnessKind::kAbsoluteError;  // paper default
  /// Optional user-supplied hardness function; overrides `hardness` when
  /// set. Any decomposable error of (predicted probability, label) works
  /// (§IV) — e.g. a focal-style error that amplifies confident mistakes.
  HardnessFn custom_hardness;
  AlphaSchedule schedule = AlphaSchedule::kTan;
  /// Algorithm 1 trains a bootstrap model f0 on a random balanced subset
  /// to obtain the initial hardness, but returns only f1..fn. Setting
  /// this keeps f0 in the final vote as well (ablation; the authors'
  /// released implementation keeps it).
  bool include_bootstrap_model = false;
  std::uint64_t seed = 0;
};

/// Crash-safe training knobs (docs/robustness.md). With `directory`
/// set, Fit publishes an atomically-written, CRC-checked checkpoint of
/// the full fit state after every `every`-th self-paced iteration, and
/// with `resume` continues a previous run from it instead of starting
/// over. The determinism contract extends across the crash: a run
/// killed at any iteration and resumed produces the same final
/// artifact, bit for bit, as an uninterrupted run — under any
/// SPE_THREADS setting, because the checkpoint captures the exact RNG
/// engine state and resume replays the deterministic probability
/// accumulation from the restored members. A checkpoint that cannot
/// seed the resume (damaged, another format version, another
/// configuration or dataset) makes Fit throw checkpoint::ResumeRefused;
/// a missing one is a fresh start.
struct FitCheckpointOptions {
  std::string directory;   ///< empty => checkpointing disabled
  std::size_t every = 1;   ///< checkpoint after every N-th iteration
  bool resume = false;     ///< continue from an existing checkpoint
};

/// Self-paced Ensemble (Algorithm 1) — the paper's core contribution.
///
/// Iteratively: evaluate the hardness of every majority sample under the
/// current ensemble, cut the majority into k hardness bins, under-sample
/// a balanced subset with bin weights 1 / (h_l + alpha), and train the
/// next base model on it. Early iterations (alpha ~ 0) harmonize the
/// hardness contribution — emphasizing informative borderline samples
/// while noise cannot dominate; late iterations (alpha -> inf) focus on
/// hard samples while a skeleton of trivial samples survives, preventing
/// the overfitting that BalanceCascade exhibits (§VI-A.3).
///
/// Works with any base classifier (KNN, DT, MLP, SVM, boosted trees, ...)
/// because hardness is defined w.r.t. the model being built — no distance
/// metric is ever needed.
///
/// Fit state: majority sample m is the m-th label-0 row of the training
/// view, in view order. The fit keeps one probability sum per majority
/// row (8 B, keyed by m) and the 2|P| balanced-subset indices, and no
/// majority index list: the sampler returns rows, and every pass that
/// scores the majority set (each member's predict, the resume replay,
/// the drift baseline) walks the view in blocks and scores each block's
/// label-0 rows once, bit-identically to one |N|-row view.
/// Artifacts depend only on the viewed rows and their order: a fit on
/// an indexed view equals a fit on its Materialize().
class SelfPacedEnsemble final : public VotingClassifier,
                                public HardnessProfiled {
 public:
  /// Default base model: a depth-10 decision tree.
  explicit SelfPacedEnsemble(const SelfPacedEnsembleConfig& config = {});
  SelfPacedEnsemble(const SelfPacedEnsembleConfig& config,
                    std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;

  /// Fits like Fit, then keeps only the member prefix with the best
  /// AUCPRC on `validation` (which must keep its natural imbalanced
  /// distribution, like the paper's Ddev). Guards against the rare
  /// late-iteration degradation that Fig. 5 shows for noisy data. The
  /// validation set never steers training: every prefix, from one
  /// member up, is scored after the last member is trained, and the
  /// first best one is kept. With include_bootstrap_model, f0 is the
  /// first prefix member, so both §VI-C ablation settings run the same
  /// truncation procedure. Checkpointing is Fit's: the same options
  /// apply, and a checkpoint written by either entry point resumes the
  /// other. Returns the chosen prefix length.
  std::size_t FitWithValidation(const DatasetView& train, const DatasetView& validation);

  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

  /// Observer called after each self-paced member is trained, once the
  /// iteration's checkpoint (if any) is published. An exception thrown
  /// from it propagates out of Fit and leaves that iteration resumable.
  void set_iteration_callback(IterationCallback callback) {
    callback_ = std::move(callback);
  }

  /// Installs the crash-safety knobs for subsequent Fit calls.
  void set_checkpoint_options(FitCheckpointOptions options) {
    checkpoint_ = std::move(options);
  }
  const FitCheckpointOptions& checkpoint_options() const {
    return checkpoint_;
  }

  /// Alpha used at self-paced iteration i (1-based) of n under `schedule`.
  /// Exposed for tests and for the Fig. 3 bench.
  static double AlphaAt(AlphaSchedule schedule, std::size_t i, std::size_t n);

  /// HardnessProfiled: the hardness-bin histogram of the majority set
  /// under the final ensemble, recorded by Fit. This is the §V-A
  /// statistic frozen as a drift baseline: SaveModelBundle embeds it in
  /// v3 artifacts and the serving layer compares live-traffic hardness
  /// bins against it (docs/lifecycle.md). Empty (nullptr) before Fit or
  /// when a custom hardness function is set — a custom closure cannot be
  /// named in the artifact, so the live side could not rebuild it.
  const HardnessHistogram* training_hardness() const override {
    return training_hardness_.empty() ? nullptr : &training_hardness_;
  }

 private:
  /// Algorithm 1 on `base`, a columnar view: trains every member into
  /// ensemble_, checkpointing and resuming as checkpoint_ says.
  void FitMembers(const DatasetView& base);

  /// 64-bit digest of every config field that changes what Fit computes.
  std::uint64_t ConfigFingerprint() const;

  /// Re-bins the hardness of `train`'s label-0 rows under the current
  /// ensemble into training_hardness_ (the drift baseline of v3
  /// artifacts). `train` is columnar. Called once per fit, after any
  /// validation truncation, so the frozen distribution matches the
  /// member set that actually votes.
  void RecordHardnessBaseline(const DatasetView& train);

  SelfPacedEnsembleConfig config_;
  std::unique_ptr<Classifier> base_prototype_;
  IterationCallback callback_;
  HardnessHistogram training_hardness_;
  FitCheckpointOptions checkpoint_;
};

}  // namespace spe

#endif  // SPE_CORE_SELF_PACED_ENSEMBLE_H_
