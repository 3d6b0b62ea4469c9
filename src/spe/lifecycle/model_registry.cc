#include "spe/lifecycle/model_registry.h"

#include <utility>

#include "spe/common/check.h"
#include "spe/io/model_io.h"
#include "spe/kernels/flat_forest.h"
#include "spe/obs/trace.h"

namespace spe {
namespace lifecycle {

ModelVersion::ModelVersion(std::unique_ptr<Classifier> model,
                           std::uint64_t version, std::size_t num_features,
                           const DriftConfig& drift_config)
    : model_(std::move(model)), version_(version), num_features_(num_features) {
  SPE_CHECK(model_ != nullptr);
  SPE_CHECK_GT(num_features_, 0u);
  prefix_voter_ = dynamic_cast<const PrefixVoter*>(model_.get());
  // Resolving the kernel compiles the flat program if the model can
  // lower — deliberately on the loading thread (see class comment).
  kernel_ = kernels::ActiveKernel(*model_);
  if (const auto* profiled = dynamic_cast<const HardnessProfiled*>(
          model_.get())) {
    if (const HardnessHistogram* histogram = profiled->training_hardness()) {
      drift_ = std::make_unique<HardnessDriftDetector>(*histogram,
                                                       drift_config);
    }
  }
}

ModelRegistry::ModelRegistry(DriftConfig drift_config)
    : drift_config_(drift_config),
      active_version_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "spe_lifecycle_active_version")),
      shadow_version_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "spe_lifecycle_shadow_version")),
      loads_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_loads_total")),
      load_failures_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_load_failures_total")),
      activations_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_activations_total")) {}

ModelRegistry::LoadResult ModelRegistry::LoadFromFile(
    const std::string& path) {
  const obs::TraceSpan span("lifecycle.load");
  LoadResult result;
  // Transient failures — io-class refusals (a mount blip; the artifact
  // is rename(2)-published, so a file that exists is never torn) and
  // TransientIoError (injected read faults) — retry under load_retry_
  // before the candidate is refused. Integrity failures never retry:
  // bits do not heal.
  ModelBundle bundle;
  frame::Error error;
  try {
    error = RetryWithBackoff(load_retry_, "artifact load " + path, [&] {
      frame::Error attempt = DecodeModelBundleFromFile(path, &bundle);
      if (attempt.cls == frame::ErrorClass::kIo) {
        throw TransientIoError(attempt.message);
      }
      return attempt;
    });
  } catch (const TransientIoError& e) {
    error = {e.injected() ? frame::ErrorClass::kInjectedFault
                          : frame::ErrorClass::kIo,
             e.what()};
  }
  if (!error.ok()) {
    load_failures_total_.Add();
    result.error = std::move(error.message);
    result.error_class = error.cls;
    return result;
  }
  result.version = Install(std::move(bundle.model), bundle.num_features);
  return result;
}

std::shared_ptr<const ModelVersion> ModelRegistry::Install(
    std::unique_ptr<Classifier> model, std::size_t num_features) {
  std::uint64_t number = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    number = next_version_++;
  }
  // The kernel compile runs outside the lock: a load never stalls the
  // scoring workers' per-batch snapshot.
  auto version = std::make_shared<const ModelVersion>(
      std::move(model), number, num_features, drift_config_);
  loads_total_.Add();
  return version;
}

std::string ModelRegistry::Activate(
    std::shared_ptr<const ModelVersion> version) {
  SPE_CHECK(version != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ != nullptr &&
        active_->num_features() != version->num_features()) {
      return "cannot activate version " +
             std::to_string(version->version()) + ": feature width " +
             std::to_string(version->num_features()) +
             " does not match the serving schema width " +
             std::to_string(active_->num_features());
    }
    // The swap itself. Scoring threads that already snapshotted the old
    // version finish their batch on it; the next snapshot sees the new
    // one. Nothing drops.
    active_version_gauge_.Set(static_cast<double>(version->version()));
    active_.swap(version);
  }
  // `version` now holds the retired active, released after the lock.
  activations_total_.Add();
  return "";
}

void ModelRegistry::SetShadow(std::shared_ptr<const ModelVersion> version) {
  std::lock_guard<std::mutex> lock(mu_);
  shadow_version_gauge_.Set(
      version == nullptr ? 0.0 : static_cast<double>(version->version()));
  // The old shadow leaves in `version`, which outlives the lock.
  shadow_.swap(version);
}

}  // namespace lifecycle
}  // namespace spe
