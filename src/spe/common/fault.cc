#include "spe/common/fault.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "spe/common/check.h"
#include "spe/common/parse.h"

namespace spe {

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry registry;
  return registry;
}

FaultRegistry& Faults() { return FaultRegistry::Instance(); }

FaultRegistry::FaultRegistry() {
  const char* spec = std::getenv("SPE_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return;
  FaultConfig config;
  std::string error;
  SPE_CHECK(ParseSpec(spec, &config, &error))
      << "bad SPE_FAULTS: " << error;
  // Configure() locks mu_; safe here because the constructor runs once
  // under the static-local guard before Instance() returns.
  Configure(config);
}

void FaultRegistry::Configure(const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  engine_.seed(config.seed);
  enabled_.store(config.score_delay_ms > 0 || config.model_io_fail_rate > 0 ||
                     config.artifact_write_fail_rate > 0 ||
                     config.artifact_read_fail_rate > 0 ||
                     config.data_io_fail_rate > 0 ||
                     config.crash_at_iteration > 0,
                 std::memory_order_relaxed);
}

void FaultRegistry::Reset() { Configure(FaultConfig{}); }

bool FaultRegistry::ParseSpec(std::string_view spec, FaultConfig* config,
                              std::string* error) {
  FaultConfig parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;  // tolerate "a=1,,b=2" and trailing commas
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      *error = "expected key=value, got '" + std::string(entry) + "'";
      return false;
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    if (key == "score_delay_ms" || key == "seed" ||
        key == "crash_at_iteration") {
      const auto v = ParseInt64(value);
      if (!v || *v < 0) {
        *error = std::string(key) + " expects a non-negative integer, got '" +
                 std::string(value) + "'";
        return false;
      }
      std::uint64_t* slot = key == "seed"             ? &parsed.seed
                            : key == "score_delay_ms" ? &parsed.score_delay_ms
                                                      : &parsed.crash_at_iteration;
      *slot = static_cast<std::uint64_t>(*v);
    } else if (key == "model_io_fail_rate" ||
               key == "artifact_write_fail_rate" ||
               key == "artifact_read_fail_rate" || key == "data_io_fail_rate") {
      const auto v = ParseFiniteDouble(value);
      if (!v || *v < 0.0 || *v > 1.0) {
        *error = std::string(key) + " expects a number in [0, 1], got '" +
                 std::string(value) + "'";
        return false;
      }
      double* slot = key == "model_io_fail_rate" ? &parsed.model_io_fail_rate
                     : key == "artifact_write_fail_rate"
                         ? &parsed.artifact_write_fail_rate
                     : key == "artifact_read_fail_rate"
                         ? &parsed.artifact_read_fail_rate
                         : &parsed.data_io_fail_rate;
      *slot = *v;
    } else {
      *error = "unknown fault '" + std::string(key) + "'";
      return false;
    }
  }
  *config = parsed;
  return true;
}

void FaultRegistry::InjectScoreDelay() const {
  if (!enabled()) return;
  std::uint64_t delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    delay_ms = config_.score_delay_ms;
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

bool FaultRegistry::ShouldFailModelIo() {
  return DrawFailure(&FaultConfig::model_io_fail_rate);
}

bool FaultRegistry::ShouldFailArtifactWrite() {
  return DrawFailure(&FaultConfig::artifact_write_fail_rate);
}

bool FaultRegistry::ShouldFailArtifactRead() {
  return DrawFailure(&FaultConfig::artifact_read_fail_rate);
}

bool FaultRegistry::ShouldFailDataIo() {
  return DrawFailure(&FaultConfig::data_io_fail_rate);
}

bool FaultRegistry::DrawFailure(double FaultConfig::* rate) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // Zero-rate faults must not draw: an unrelated active fault would
  // otherwise shift the shared engine's sequence and change which
  // operations fail under a given seed.
  if (config_.*rate <= 0.0) return false;
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) <
         config_.*rate;
}

void FaultRegistry::MaybeCrashAtIteration(std::size_t iteration) const {
  if (!enabled()) return;
  std::uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = config_.crash_at_iteration;
  }
  if (target == 0 || iteration != target) return;
  std::fprintf(stderr,
               "[spe] SPE_FAULTS crash_at_iteration=%llu: killing process\n",
               static_cast<unsigned long long>(target));
  std::fflush(stderr);
  std::raise(SIGKILL);
}

}  // namespace spe
