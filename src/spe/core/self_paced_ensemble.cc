#include "spe/core/self_paced_ensemble.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numbers>
#include <sstream>
#include <utility>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/parallel.h"
#include "spe/common/parse.h"
#include "spe/common/rng.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/io/model_io.h"
#include "spe/metrics/metrics.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"

namespace spe {
namespace {

// A NaN probability would silently poison every later hardness update
// (prob_sum is cumulative), and the eventual "hardness must be
// non-negative" abort points nowhere near the culprit. Fail here, naming
// the member that produced it.
void CheckProbsAreNotNan(const std::vector<double>& probs,
                         std::size_t member_index) {
  for (std::size_t m = 0; m < probs.size(); ++m) {
    SPE_CHECK(!std::isnan(probs[m]))
        << "base learner member " << member_index
        << " produced NaN probability for majority row " << m;
  }
}

// Rows per block of the passes that score the majority set: at most
// 4,096, so a block's index buffer and a member's per-call temporary
// (AccumulateViaPredictProba) take at most 32 KiB, reused from the
// heap; and few enough per worker's run (at least four blocks each)
// that the contiguous runs balance. Never under PredictProba's 256-row
// grain.
std::size_t MajorityBlockRows(std::size_t rows) {
  const std::size_t blocks = 4 * NumThreads();
  return std::clamp<std::size_t>((rows + blocks - 1) / blocks, 256, 4096);
}

// Majority sample m is the m-th label-0 row of `train` (columnar), so
// the fit keeps no majority index list. Each pass that scores the
// majority set walks `train` in blocks (MajorityBlockRows): a
// block's label-0 rows (parent-absolute, in view order) are gathered
// into a reused buffer and score(block, m0) is called, where `block`
// views them and m0 is the first one's m. Each majority row is scored
// once, by the same computation as in one |N|-row view, and no minority
// row is scored. The blocks are split into one contiguous run per
// worker, so a pass makes one parallel dispatch (as one |N|-row view
// did) instead of one per block; the runs write disjoint m ranges, so
// the result does not depend on the thread count.
template <typename Score>
void ForEachMajorityBlock(const DatasetView& train, Score score) {
  // Local copies, so the loops keep them in registers.
  const DatasetView view = train;
  const int* labels = view.parent()->labels().data();
  const std::size_t n = view.num_rows();
  const std::size_t block_rows = MajorityBlockRows(n);
  const std::size_t num_blocks = (n + block_rows - 1) / block_rows;
  // m0 of every block, so the runs can start anywhere.
  std::vector<std::size_t> m0(num_blocks + 1, 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t end = std::min((b + 1) * block_rows, n);
    std::size_t k = 0;
    for (std::size_t r = b * block_rows; r < end; ++r) {
      k += labels[view.RowIndex(r)] == 0 ? 1 : 0;
    }
    m0[b + 1] = m0[b] + k;
  }
  const std::size_t runs = std::min(NumThreads(), num_blocks);
  std::vector<std::vector<std::size_t>> buffers(
      runs, std::vector<std::size_t>(std::min(block_rows, n)));
  ParallelForTasks(0, runs, [&](std::size_t run) {
    std::vector<std::size_t>& rows = buffers[run];
    for (std::size_t b = num_blocks * run / runs;
         b < num_blocks * (run + 1) / runs; ++b) {
      if (m0[b + 1] == m0[b]) continue;
      const std::size_t end = std::min((b + 1) * block_rows, n);
      // Branch-free: every row is written, only a label-0 row is kept.
      std::size_t k = 0;
      for (std::size_t r = b * block_rows; r < end; ++r) {
        const std::size_t row = view.RowIndex(r);
        rows[k] = row;
        k += labels[row] == 0 ? 1 : 0;
      }
      score(view.WithIndices(std::span<const std::size_t>(rows.data(), k)),
            m0[b]);
    }
  });
}

// `train` when it is columnar; otherwise its Materialize() in `owned`.
// Row-major views have no parent matrix to stack an index view on.
DatasetView Columnar(const DatasetView& train, Dataset& owned) {
  if (!train.row_major()) return train;
  owned = train.Materialize();
  return DatasetView(owned);
}

// "" when `loaded` can seed a resume of a fit under `config` whose
// fingerprints are `expected`'s; otherwise the refusal reason.
std::string ValidateLoadedState(const checkpoint::LoadResult& loaded,
                                const SelfPacedEnsembleConfig& config,
                                const checkpoint::TrainerStateCore& expected) {
  if (!loaded.error.ok()) return loaded.error.message;
  const checkpoint::TrainerStateCore& core = loaded.core;
  if (core.config_fingerprint != expected.config_fingerprint) {
    return "checkpoint was written by a different trainer configuration";
  }
  if (core.data_fingerprint != expected.data_fingerprint) {
    return "checkpoint was written against different training data";
  }
  if (core.next_iteration < 1 ||
      core.next_iteration > config.n_estimators + 1) {
    return "checkpoint iteration out of range";
  }
  const std::size_t expected_members =
      core.next_iteration - 1 + (config.include_bootstrap_model ? 1 : 0);
  if (loaded.members.size() != expected_members) {
    return "checkpoint member count does not match its iteration";
  }
  // Resume replays f0 to rebuild the accumulator, so its bytes must be
  // present exactly when f0 is not members[0].
  if (config.include_bootstrap_model != core.bootstrap_blob.empty()) {
    return core.bootstrap_blob.empty()
               ? "checkpoint is missing the bootstrap model"
               : "checkpoint carries a bootstrap model it should not";
  }
  return "";
}

// Publishes `state`, with the RNG's engine state, and the members'
// cached SaveClassifier bytes to `path`, on the training thread. The
// probability accumulator is recomputed at resume, never stored.
void PublishFitState(const std::string& path,
                     checkpoint::TrainerStateCore& state, Rng& rng,
                     const std::vector<std::string>& member_blobs) {
  const obs::TraceSpan span("spe.fit.checkpoint");
  std::ostringstream os;
  os << rng.engine();
  state.rng_state = os.str();
  checkpoint::PublishCheckpoint(path, state, member_blobs);
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("spe_fit_checkpoints_total")
        .Add(1);
  }
}

}  // namespace

SelfPacedEnsemble::SelfPacedEnsemble(const SelfPacedEnsembleConfig& config)
    : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK_GT(config.num_bins, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

SelfPacedEnsemble::SelfPacedEnsemble(const SelfPacedEnsembleConfig& config,
                                     std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK_GT(config.num_bins, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
}

double SelfPacedEnsemble::AlphaAt(AlphaSchedule schedule, std::size_t i,
                                  std::size_t n) {
  SPE_CHECK_GE(i, 1u);
  SPE_CHECK_LE(i, n);
  // Progress in [0, 1] across the self-paced iterations. Algorithm 1
  // writes alpha = tan(i*pi/2n), but the surrounding text (and the
  // authors' released implementation) require alpha = 0 at the first
  // iteration and alpha -> inf at the last, so the schedule is evaluated
  // on (i-1)/(n-1).
  const double progress =
      n <= 1 ? 1.0
             : static_cast<double>(i - 1) / static_cast<double>(n - 1);
  switch (schedule) {
    case AlphaSchedule::kTan:
      if (progress >= 1.0) return std::numeric_limits<double>::infinity();
      return std::tan(progress * std::numbers::pi / 2.0);
    case AlphaSchedule::kZero:
      return 0.0;
    case AlphaSchedule::kInfinity:
      return std::numeric_limits<double>::infinity();
    case AlphaSchedule::kLinear:
      return 10.0 * progress;
  }
  SPE_CHECK(false) << "unhandled schedule";
  return 0.0;
}

void SelfPacedEnsemble::Fit(const DatasetView& train) {
  // Spans read the steady clock only — never the Rng — and gauges are
  // pure reporting, so instrumentation cannot perturb the bit-identical
  // determinism contract (docs/performance.md).
  const obs::TraceSpan fit_span("spe.fit");
  train.CheckAlive();
  Dataset owned;
  const DatasetView base = Columnar(train, owned);
  FitMembers(base);
  RecordHardnessBaseline(base);
}

void SelfPacedEnsemble::FitMembers(const DatasetView& base) {
  ensemble_ = VotingEnsemble();
  training_hardness_ = HardnessHistogram();
  Rng rng(config_.seed);
  // The whole self-paced loop runs on index arithmetic: the minority
  // prefix and every per-iteration majority pick are parent-absolute
  // row indices stacked into views — no row is ever copied.
  // Majority sample m is the m-th label-0 row of `base`: prob_sum is
  // keyed by m, the sampler returns rows of `base`, and the scoring
  // passes walk `base` in blocks (ForEachMajorityBlock).
  const std::vector<int>& labels = base.parent()->labels();
  const std::size_t num_neg = CountMajorityRows(base);
  std::size_t num_pos = 0;
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    num_pos += labels[base.RowIndex(r)] == 1 ? 1 : 0;
  }
  SPE_CHECK_GT(num_pos, 0u) << "SPE needs at least one minority sample";
  SPE_CHECK_GT(num_neg, 0u) << "SPE needs at least one majority sample";

  auto make_member = [&](std::size_t index) {
    std::unique_ptr<Classifier> member = base_prototype_->Clone();
    member->Reseed(config_.seed + 7919 * (index + 1));
    return member;
  };
  // Reusable balanced-subset index buffer: the minority rows
  // (parent-absolute, in view order) survive as a fixed prefix; every
  // iteration truncates back to them and appends the fresh majority
  // pick. The members fit through a view over this buffer, so the
  // per-iteration subset costs zero feature copies (it used to be the
  // dominant allocation in this loop).
  std::vector<std::size_t> subset_abs;
  subset_abs.reserve(2 * num_pos);  // picks never exceed |P|
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    const std::size_t row = base.RowIndex(r);
    if (labels[row] == 1) subset_abs.push_back(row);
  }
  auto rebuild_subset = [&](const std::vector<std::size_t>& majority_rows) {
    subset_abs.resize(num_pos);
    for (std::size_t r : majority_rows) subset_abs.push_back(base.RowIndex(r));
    return base.WithIndices(subset_abs);
  };

  const std::size_t n = config_.n_estimators;
  const bool checkpointing = !checkpoint_.directory.empty();
  std::string checkpoint_path;
  // The checkpoint's fingerprints; each publish fills in the rest.
  // state.bootstrap_blob holds f0's bytes when f0 votes but is not a
  // member (the default): resume replays f0's probabilities to rebuild
  // prob_sum, and f0 lives nowhere else. It is empty whenever f0 is
  // members[0] or checkpointing is off.
  checkpoint::TrainerStateCore state;
  if (checkpointing) {
    SPE_CHECK_GT(checkpoint_.every, 0u) << "checkpoint interval must be >= 1";
    checkpoint_path = checkpoint::CheckpointPath(checkpoint_.directory);
    state.config_fingerprint = ConfigFingerprint();
    state.data_fingerprint = checkpoint::DatasetFingerprint(base);
  }

  // Running sum of member probabilities over the majority set, keyed by
  // m: F_i is the average of f_0 .. f_{i-1} (Algorithm 1 line 4), so at
  // iteration i it holds i votes. PredictProba chunks each block's rows
  // across threads, bit-identically for any thread count because each
  // element is touched by exactly one fixed computation. Hardness is
  // never stored: the sampler evaluates fn(prob_sum[m] / i, 0) where it
  // reads it (MajorityHardness).
  std::vector<double> prob_sum;
  std::size_t start_iteration = 1;

  // Pre-serialized member bytes in vote order. Members are immutable
  // once trained, so each is serialized exactly once and the bytes are
  // reused by every checkpoint this run writes — without this cache a
  // run checkpointing every iteration re-walks the whole ensemble per
  // iteration, O(n^2) member serializations overall.
  std::vector<std::string> member_blobs;
  const auto append_member_blob = [&](const Classifier& member) {
    if (!checkpointing) return;
    std::ostringstream os;
    SaveClassifier(member, os);
    member_blobs.push_back(os.str());
  };

  if (checkpointing && checkpoint_.resume) {
    checkpoint::LoadResult loaded =
        checkpoint::LoadTrainerStateFromFile(checkpoint_path);
    if (loaded.missing) {
      std::fprintf(stderr, "[spe] no checkpoint at %s; training from scratch\n",
                   checkpoint_path.c_str());
    } else {
      // Everything that can refuse the checkpoint runs before any of it
      // is adopted, so a refused resume leaves no members behind.
      std::unique_ptr<Classifier> f0_replay;
      std::string reason = ValidateLoadedState(loaded, config_, state);
      if (reason.empty()) {
        std::istringstream rng_in(loaded.core.rng_state);
        rng_in >> rng.engine();
        if (rng_in.fail()) reason = "bad rng state";
      }
      if (reason.empty() && !config_.include_bootstrap_model) {
        std::istringstream blob_in(loaded.core.bootstrap_blob);
        if (!DecodeClassifier(blob_in, kAnyWidth, &f0_replay).ok()) {
          reason = "bad bootstrap model";
        }
      }
      if (!reason.empty()) {
        throw checkpoint::ResumeRefused("cannot resume from " +
                                        checkpoint_path + ": " + reason);
      }
      ensemble_ = std::move(loaded.members);
      for (std::size_t m = 0; m < ensemble_.size(); ++m) {
        append_member_blob(ensemble_.member(m));
      }
      state.bootstrap_blob = std::move(loaded.core.bootstrap_blob);
      start_iteration = loaded.core.next_iteration;

      // Rebuild the training accumulator by replaying every voter in its
      // original order: assign f0's probabilities, then += each member's.
      // Per element this is the same serial chain of additions the
      // uninterrupted run performed, so the result is bit-identical — the
      // checkpoint stores no accumulator at all (TrainerStateCore docs).
      // The members were checked for NaN when they were trained.
      const Classifier* first =
          f0_replay != nullptr ? f0_replay.get() : &ensemble_.member(0);
      const std::size_t member_start = f0_replay != nullptr ? 0 : 1;
      {
        const obs::TraceSpan span("spe.fit.resume_replay");
        prob_sum.resize(num_neg);
        ForEachMajorityBlock(base, [&](const DatasetView& block,
                                       std::size_t m0) {
          const std::span<double> acc(prob_sum.data() + m0, block.num_rows());
          const std::vector<double> p = first->PredictProba(block);
          std::copy(p.begin(), p.end(), acc.begin());
          for (std::size_t m = member_start; m < ensemble_.size(); ++m) {
            ensemble_.member(m).AccumulateProbaInto(block, acc);
          }
        });
      }
      std::fprintf(stderr, "[spe] resumed from %s at iteration %zu/%zu\n",
                   checkpoint_path.c_str(), start_iteration, n);
    }
  }

  if (prob_sum.empty()) {
    // Line 2: bootstrap model f0 on a random balanced subset. It seeds the
    // hardness estimates; whether it votes in the final ensemble is the
    // include_bootstrap_model ablation. A resumed run skips all of this —
    // the replay above already folded f0's probabilities into prob_sum.
    // The uniform pick's table (4 B per majority row) is freed before f0
    // fits.
    std::unique_ptr<Classifier> bootstrap = make_member(0);
    const DatasetView subset =
        rebuild_subset(SampleMajorityRows(base, num_pos, rng));
    {
      const obs::TraceSpan span("spe.fit.member_fit");
      bootstrap->Fit(subset);
    }
    {
      const obs::TraceSpan span("spe.fit.member_predict");
      prob_sum.resize(num_neg);
      ForEachMajorityBlock(base, [&](const DatasetView& block,
                                     std::size_t m0) {
        const std::vector<double> p = bootstrap->PredictProba(block);
        std::copy(p.begin(), p.end(), prob_sum.begin() + m0);
      });
    }
    CheckProbsAreNotNan(prob_sum, 0);
    if (config_.include_bootstrap_model) {
      ensemble_.Add(std::move(bootstrap));
      append_member_blob(ensemble_.member(ensemble_.size() - 1));
    } else if (checkpointing) {
      std::ostringstream os;
      SaveClassifier(*bootstrap, os);
      state.bootstrap_blob = os.str();
    }
  }

  const bool instrumented = obs::Enabled();
  std::vector<std::size_t> bin_population;
  for (std::size_t i = start_iteration; i <= n; ++i) {
    // Lines 4-9: hardness of each majority sample w.r.t. the ensemble,
    // then self-paced under-sampling with alpha_i.
    const MajorityHardness hardness{
        prob_sum, i, config_.hardness,
        config_.custom_hardness ? &config_.custom_hardness : nullptr};
    const double alpha = AlphaAt(config_.schedule, i, n);
    std::vector<std::size_t> pick;
    {
      const obs::TraceSpan span("spe.fit.under_sample");
      pick = SelfPacedUnderSample(hardness, base, alpha, config_.num_bins,
                                  num_pos, rng,
                                  instrumented ? &bin_population : nullptr);
    }
    if (instrumented) {
      auto& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("spe_fit_iterations_total").Add(1);
      registry.GetGauge("spe_fit_alpha").Set(alpha);
      for (std::size_t b = 0; b < bin_population.size(); ++b) {
        registry
            .GetGauge("spe_fit_bin_population{bin=\"" + std::to_string(b) +
                      "\"}")
            .Set(static_cast<double>(bin_population[b]));
      }
    }

    // Line 10: train f_i on the balanced subset.
    std::unique_ptr<Classifier> member = make_member(i);
    const DatasetView subset = rebuild_subset(pick);
    {
      const obs::TraceSpan span("spe.fit.member_fit");
      member->Fit(subset);
    }

    // Fused PredictProba-then-add (Classifier::AccumulateProbaInto): no
    // per-member |N| vector. prob_sum was NaN-free before the add, so a
    // NaN after it is this member's.
    {
      const obs::TraceSpan span("spe.fit.member_predict");
      ForEachMajorityBlock(base, [&](const DatasetView& block,
                                     std::size_t m0) {
        member->AccumulateProbaInto(
            block, std::span<double>(prob_sum).subspan(m0, block.num_rows()));
      });
    }
    CheckProbsAreNotNan(prob_sum, i);

    ensemble_.Add(std::move(member));
    append_member_blob(ensemble_.member(ensemble_.size() - 1));
    // The final iteration always checkpoints regardless of `every`,
    // covering a crash between the last member and the artifact publish.
    if (checkpointing && (i % checkpoint_.every == 0 || i == n)) {
      state.next_iteration = i + 1;
      PublishFitState(checkpoint_path, state, rng, member_blobs);
    }
    // Chaos crash point: SIGKILL here models preemption right after the
    // iteration's state was (or was not) persisted.
    Faults().MaybeCrashAtIteration(i);
    // The observer runs last, so one that throws leaves this iteration
    // resumable.
    if (callback_) {
      callback_(IterationInfo{i, ensemble_, subset});
    }
  }
}

std::uint64_t SelfPacedEnsemble::ConfigFingerprint() const {
  std::uint64_t h = checkpoint::HashCombine(0x7370652d666974ull,  // "spe-fit"
                                            config_.n_estimators);
  h = checkpoint::HashCombine(h, config_.num_bins);
  h = checkpoint::HashCombine(h, static_cast<std::uint64_t>(config_.hardness));
  h = checkpoint::HashCombine(h, static_cast<std::uint64_t>(config_.schedule));
  h = checkpoint::HashCombine(h, config_.include_bootstrap_model ? 1u : 0u);
  h = checkpoint::HashCombine(h, config_.seed);
  // A custom hardness closure has no stable identity; its presence bit
  // at least refuses resumes across custom/named hardness swaps.
  h = checkpoint::HashCombine(h, config_.custom_hardness ? 1u : 0u);
  return checkpoint::HashCombine(h, Crc32(base_prototype_->Name()));
}

void SelfPacedEnsemble::RecordHardnessBaseline(const DatasetView& train) {
  // Freeze the drift baseline: hardness of the majority set under the
  // ensemble exactly as it will serve (PredictProba — not the self-paced
  // loop's prob_sum, which always includes the bootstrap model f0 even
  // when include_bootstrap_model leaves f0 out of the final vote; a
  // baseline binned over a different member set than the serving vote
  // alerts on in-distribution traffic). Pure reporting — no Rng draw, so
  // the determinism contract is untouched. Skipped for custom hardness
  // closures: the artifact could not name them for the live side to
  // rebuild (training_hardness() docs).
  training_hardness_ = HardnessHistogram();
  if (config_.custom_hardness || ensemble_.size() == 0) return;
  const obs::TraceSpan span("spe.fit.hardness_baseline");
  // One |N| vector: the probabilities (written in place, block by
  // block), binned through the hardness function where they are read
  // (x / 1 is x, bit for bit).
  std::vector<double> probs(CountMajorityRows(train));
  ForEachMajorityBlock(train, [&](const DatasetView& block, std::size_t m0) {
    ensemble_.PredictProbaPrefixInto(
        block, ensemble_.size(),
        std::span<double>(probs).subspan(m0, block.num_rows()));
  });
  const HardnessBins bins = ComputeHardnessBins(
      MajorityHardness{probs, 1, config_.hardness}, config_.num_bins);
  training_hardness_.kind = HardnessName(config_.hardness);
  training_hardness_.min = bins.min;
  training_hardness_.max = bins.max;
  training_hardness_.counts.assign(bins.population.begin(),
                                   bins.population.end());
}

std::size_t SelfPacedEnsemble::FitWithValidation(const DatasetView& train,
                                                 const DatasetView& validation) {
  const obs::TraceSpan fit_span("spe.fit");
  train.CheckAlive();
  validation.CheckAlive();
  SPE_CHECK_GT(validation.CountPositives(), 0u)
      << "validation set needs positives to score AUCPRC";
  Dataset owned;
  const DatasetView base = Columnar(train, owned);
  FitMembers(base);

  // Score every prefix once the members are trained: each member's
  // probabilities join the running sum once, in vote order, and the
  // first best prefix wins.
  const std::vector<int> validation_labels = validation.LabelsVector();
  std::vector<double> prob_sum(validation.num_rows(), 0.0);
  double best_auc = -1.0;
  std::size_t best_size = 0;
  for (std::size_t k = 1; k <= ensemble_.size(); ++k) {
    const std::vector<double> p =
        ensemble_.member(k - 1).PredictProba(validation);
    for (std::size_t r = 0; r < prob_sum.size(); ++r) prob_sum[r] += p[r];
    std::vector<double> average(prob_sum);
    const double inv = 1.0 / static_cast<double>(k);
    for (double& v : average) v *= inv;
    const double auc = AucPrc(validation_labels, average);
    if (auc > best_auc) {
      best_auc = auc;
      best_size = k;
    }
  }
  ensemble_.Truncate(best_size);
  RecordHardnessBaseline(base);
  return best_size;
}

std::unique_ptr<Classifier> SelfPacedEnsemble::Clone() const {
  return std::make_unique<SelfPacedEnsemble>(config_, base_prototype_->Clone());
}

std::string SelfPacedEnsemble::Name() const {
  std::ostringstream os;
  os << "SPE" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
