#ifndef SPE_LIFECYCLE_MODEL_REGISTRY_H_
#define SPE_LIFECYCLE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/common/frame.h"
#include "spe/common/retry.h"
#include "spe/core/hardness.h"
#include "spe/lifecycle/drift.h"
#include "spe/obs/metrics.h"

namespace spe {
namespace lifecycle {

/// What the registry records about one loaded artifact — the fields an
/// operator needs to answer "what exactly is this process serving?".
struct VersionManifest {
  std::uint64_t version = 0;   ///< registry-assigned, monotonic from 1
  std::string source_path;     ///< artifact file; "" for in-memory installs
  int format_version = 0;      ///< bundle header version (0 = in-memory)
  std::size_t num_features = 0;
  std::size_t payload_bytes = 0;  ///< 0 for in-memory installs
  std::string crc32_hex;          ///< "" for in-memory installs
  std::string kernel;  ///< "flat" or "reference"
  bool has_hardness_histogram = false;
  std::string model_name;  ///< Classifier::Name() of the loaded model
};

/// One immutable loaded model: the classifier, its resolved inference
/// kernel, its manifest, and — when the artifact carried a v3 hardness
/// histogram — a drift detector seeded with that baseline. The model and
/// manifest never change after construction; the drift detector's live
/// counters are the only mutable state, which is what lets scoring
/// threads use a version with no lock at all.
class ModelVersion {
 public:
  /// `model` must be fitted. The flat kernel is compiled here (not on
  /// the first scored batch), so hot reload pays the compile on the
  /// lifecycle thread, never inside a request's latency budget.
  ModelVersion(std::unique_ptr<Classifier> model, VersionManifest manifest,
               const DriftConfig& drift_config);

  ModelVersion(const ModelVersion&) = delete;
  ModelVersion& operator=(const ModelVersion&) = delete;

  const Classifier& model() const { return *model_; }
  /// Non-null iff the model supports ensemble-prefix scoring.
  const PrefixVoter* prefix_voter() const { return prefix_voter_; }
  const VersionManifest& manifest() const { return manifest_; }
  std::uint64_t version() const { return manifest_.version; }
  std::size_t num_features() const { return manifest_.num_features; }
  /// "flat" (the compiled kernel scores this model) or "reference" —
  /// resolved once at construction, when the kernel is compiled.
  const char* kernel() const { return kernel_; }
  /// Non-null iff the artifact carried a training hardness histogram.
  HardnessDriftDetector* drift() const { return drift_.get(); }

 private:
  std::unique_ptr<Classifier> model_;
  const PrefixVoter* prefix_voter_ = nullptr;
  const char* kernel_ = "reference";
  VersionManifest manifest_;
  std::unique_ptr<HardnessDriftDetector> drift_;
};

/// Versioned model registry — the heart of the lifecycle layer
/// (docs/lifecycle.md).
///
/// Owns every model version loaded into the process and designates one
/// as *active* (scores live traffic) and at most one as *shadow*
/// (scores a sample of live batches for comparison; see
/// BatchScorerConfig::shadow_every). Versions are immutable and held by
/// shared_ptr, and the active/shadow designations are plain shared_ptrs
/// behind their own small mutex: a reader snapshots a version by copying
/// the pointer under that lock (one uncontended lock and a refcount
/// increment per scored batch), and a concurrent Activate swaps the
/// pointer under the same lock — batches already holding the old
/// snapshot finish on the old model, new batches pick up the new one,
/// and nothing drops. The lock is held only for the copy or the swap,
/// never across a load or a kernel compile. Retired versions stay alive
/// as long as any in-flight batch (or the registry's version list)
/// references them.
///
/// Not std::atomic<std::shared_ptr>: libstdc++ 12 releases the lock bit
/// inside its load with relaxed ordering, which ThreadSanitizer reports
/// as a race against the next store. A mutex states the ordering
/// outright.
///
/// Mutations (loading, activating) also take a second mutex that guards
/// the version list — they are rare, operator-driven events.
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
  const RetryPolicy& load_retry() const { return load_retry_; }

  /// Registers an already-constructed model (tests, embedded use) as a
  /// new inactive version.
  std::shared_ptr<const ModelVersion> Install(
      std::unique_ptr<Classifier> model, std::size_t num_features,
      std::string source_path = "");

  /// Makes `version` the active version. Fails (returning a non-empty
  /// error, with the previous active untouched) when the version's
  /// feature width differs from the current active's — a server cannot
  /// change its input schema mid-stream.
  std::string Activate(std::shared_ptr<const ModelVersion> version);

  /// Designates `version` as the shadow scorer; null clears it.
  void SetShadow(std::shared_ptr<const ModelVersion> version);

  /// Snapshots. active() is non-null once Activate has succeeded;
  /// shadow() may be null.
  std::shared_ptr<const ModelVersion> active() const {
    std::lock_guard<std::mutex> lock(roles_mu_);
    return active_;
  }
  std::shared_ptr<const ModelVersion> shadow() const {
    std::lock_guard<std::mutex> lock(roles_mu_);
    return shadow_;
  }

  /// Manifest of every version ever loaded, in version order, with the
  /// current role ("active", "shadow", "loaded") resolved per entry.
  struct ManifestEntry {
    VersionManifest manifest;
    std::string role;
  };
  std::vector<ManifestEntry> Manifests() const;

  const DriftConfig& drift_config() const { return drift_config_; }

 private:
  /// Assigns the next version number and records the new version.
  std::shared_ptr<const ModelVersion> Register(
      std::unique_ptr<Classifier> model, VersionManifest manifest);

  const DriftConfig drift_config_;
  RetryPolicy load_retry_;
  // Lock order: mu_ before roles_mu_.
  mutable std::mutex roles_mu_;  // guards active_ and shadow_
  std::shared_ptr<const ModelVersion> active_;
  std::shared_ptr<const ModelVersion> shadow_;

  mutable std::mutex mu_;  // guards versions_ and next_version_
  std::vector<std::shared_ptr<const ModelVersion>> versions_;
  std::uint64_t next_version_ = 1;

  obs::Gauge& active_version_gauge_;
  obs::Gauge& shadow_version_gauge_;
  obs::Gauge& versions_loaded_gauge_;
  obs::Counter& loads_total_;
  obs::Counter& load_failures_total_;
  obs::Counter& activations_total_;
};

}  // namespace lifecycle
}  // namespace spe

#endif  // SPE_LIFECYCLE_MODEL_REGISTRY_H_
