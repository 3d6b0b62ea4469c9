#ifndef SPE_LIFECYCLE_MODEL_REGISTRY_H_
#define SPE_LIFECYCLE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "spe/classifiers/classifier.h"
#include "spe/common/frame.h"
#include "spe/common/retry.h"
#include "spe/core/hardness.h"
#include "spe/lifecycle/drift.h"
#include "spe/obs/metrics.h"

namespace spe {
namespace lifecycle {

/// One immutable loaded model: the classifier, its resolved inference
/// kernel, its registry version number and feature width, and — when
/// the artifact carried a v3 hardness histogram — a drift detector
/// seeded with that baseline. Nothing but the drift detector's live
/// counters changes after construction, which is what lets scoring
/// threads use a version with no lock at all.
class ModelVersion {
 public:
  /// `model` must be fitted. The flat kernel is compiled here (not on
  /// the first scored batch), so hot reload pays the compile on the
  /// lifecycle thread, never inside a request's latency budget.
  ModelVersion(std::unique_ptr<Classifier> model, std::uint64_t version,
               std::size_t num_features, const DriftConfig& drift_config);

  ModelVersion(const ModelVersion&) = delete;
  ModelVersion& operator=(const ModelVersion&) = delete;

  const Classifier& model() const { return *model_; }
  /// Non-null iff the model supports ensemble-prefix scoring.
  const PrefixVoter* prefix_voter() const { return prefix_voter_; }
  /// Registry-assigned, monotonic from 1.
  std::uint64_t version() const { return version_; }
  std::size_t num_features() const { return num_features_; }
  /// "flat" (the compiled kernel scores this model) or "reference" —
  /// resolved once at construction, when the kernel is compiled.
  const char* kernel() const { return kernel_; }
  /// Non-null iff the artifact carried a training hardness histogram.
  HardnessDriftDetector* drift() const { return drift_.get(); }

 private:
  std::unique_ptr<Classifier> model_;
  const PrefixVoter* prefix_voter_ = nullptr;
  const char* kernel_ = "reference";
  std::uint64_t version_ = 0;
  std::size_t num_features_ = 0;
  std::unique_ptr<HardnessDriftDetector> drift_;
};

/// Versioned model registry — the heart of the lifecycle layer
/// (docs/lifecycle.md).
///
/// Holds two roles and nothing else: the *active* version (scores live
/// traffic) and at most one *shadow* version (scores a sample of live
/// batches for comparison; see BatchScorerConfig::shadow_every).
/// Versions are immutable and held by shared_ptr, and the roles are
/// plain shared_ptrs behind one small mutex: a reader snapshots a
/// version by copying the pointer under that lock (one uncontended lock
/// and a refcount increment per scored batch), and a concurrent
/// Activate swaps the pointer under the same lock — batches already
/// holding the old snapshot finish on the old model, new batches pick
/// up the new one, and nothing drops. The lock is held only for the
/// copy, the width check or the swap, never across a load, a kernel
/// compile or a free. A retired version is freed by its last holder:
/// usually the thread that replaced it, else the last in-flight batch
/// that snapshotted it.
///
/// Not std::atomic<std::shared_ptr>: libstdc++ 12 releases the lock bit
/// inside its load with relaxed ordering, which ThreadSanitizer reports
/// as a race against the next store. A mutex states the ordering
/// outright.
class ModelRegistry {
 public:
  explicit ModelRegistry(DriftConfig drift_config = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  struct LoadResult {
    std::shared_ptr<const ModelVersion> version;  ///< null on failure
    std::string error;                            ///< reason when null
    frame::ErrorClass error_class = frame::ErrorClass::kNone;
    bool ok() const { return version != nullptr; }
  };

  /// Loads a model artifact into a new (inactive) version. The file is
  /// read once and decoded (DecodeModelBundleFromFile), so a truncated,
  /// corrupt or unsupported artifact — or one that changes between
  /// reads — is reported as a classified LoadResult error instead of
  /// aborting the process: the difference between a refused reload and
  /// a serving outage.
  LoadResult LoadFromFile(const std::string& path);

  /// Backoff for transient load failures (io-class refusals, injected
  /// read faults). Defaults suit serving; tests shrink the
  /// backoff to keep flaky-artifact scenarios fast.
  void set_load_retry(const RetryPolicy& policy) { load_retry_ = policy; }

  /// Numbers an already-constructed model (a loaded artifact, a test,
  /// embedded use) as a new inactive version.
  std::shared_ptr<const ModelVersion> Install(
      std::unique_ptr<Classifier> model, std::size_t num_features);

  /// Makes `version` the active version. Fails (returning a non-empty
  /// error, with the previous active untouched) when the version's
  /// feature width differs from the current active's — a server cannot
  /// change its input schema mid-stream. The registry lets go of the
  /// version it replaced, and of a refused one, before returning.
  std::string Activate(std::shared_ptr<const ModelVersion> version);

  /// Designates `version` as the shadow scorer; null clears it.
  void SetShadow(std::shared_ptr<const ModelVersion> version);

  /// Snapshots. active() is non-null once Activate has succeeded;
  /// shadow() may be null.
  std::shared_ptr<const ModelVersion> active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
  }
  std::shared_ptr<const ModelVersion> shadow() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shadow_;
  }

 private:
  const DriftConfig drift_config_;
  RetryPolicy load_retry_;
  mutable std::mutex mu_;  // guards active_, shadow_ and next_version_
  std::shared_ptr<const ModelVersion> active_;
  std::shared_ptr<const ModelVersion> shadow_;
  std::uint64_t next_version_ = 1;

  obs::Gauge& active_version_gauge_;
  obs::Gauge& shadow_version_gauge_;
  obs::Counter& loads_total_;
  obs::Counter& load_failures_total_;
  obs::Counter& activations_total_;
};

}  // namespace lifecycle
}  // namespace spe

#endif  // SPE_LIFECYCLE_MODEL_REGISTRY_H_
