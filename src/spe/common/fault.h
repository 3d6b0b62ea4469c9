#ifndef SPE_COMMON_FAULT_H_
#define SPE_COMMON_FAULT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>

namespace spe {

/// What the fault-injection registry can do. All faults default to off;
/// a default-constructed config is a no-op registry.
struct FaultConfig {
  /// Sleep this long in the scoring worker after popping a batch,
  /// before deadline triage and model dispatch. Simulates a slow or
  /// stalled model so queueing-delay paths (deadline expiry, watermark
  /// degradation) are reachable deterministically in tests.
  std::uint64_t score_delay_ms = 0;
  /// Probability in [0, 1] that a model artifact file operation
  /// (SaveModelBundleToFile before the atomic rename, which aborts;
  /// DecodeModelBundleFromFile before the read, which refuses the
  /// artifact as an injected fault) fails. 1.0 fails every operation;
  /// intermediate rates draw from a seeded deterministic stream.
  double model_io_fail_rate = 0.0;
  /// Probability in [0, 1] that a model/checkpoint artifact *write*
  /// fails transiently (TransientIoError before the atomic rename, so
  /// nothing is ever half-published). Unlike model_io_fail_rate, which
  /// aborts the process, these rates model recoverable I/O weather and
  /// compose with spe/common/retry.
  double artifact_write_fail_rate = 0.0;
  /// Probability in [0, 1] that a model/checkpoint artifact *read*
  /// fails transiently (TransientIoError before any bytes are parsed).
  double artifact_read_fail_rate = 0.0;
  /// Probability in [0, 1] that loading a training dataset (LoadCsv /
  /// LoadLibsvm) fails transiently.
  double data_io_fail_rate = 0.0;
  /// When nonzero, SIGKILL the process immediately after the
  /// checkpoint for self-paced iteration N is published — the chaos
  /// harness's model of preemption/OOM-kill at the worst moment. A
  /// real SIGKILL, not an abort: no destructors, no atexit, no flush.
  std::uint64_t crash_at_iteration = 0;
  /// Seed for the probabilistic faults above. Same seed, same spec =>
  /// same fault sequence.
  std::uint64_t seed = 0;
};

/// Process-wide fault-injection registry.
///
/// Production code never branches on "is testing": it calls the
/// injection points below unconditionally, and with the default (empty)
/// config every point is a no-op costing one relaxed atomic load. Tests
/// and harnesses turn faults on either programmatically (Configure) or
/// via the SPE_FAULTS environment variable, read once at first use:
///
///   SPE_FAULTS="score_delay_ms=50,model_io_fail_rate=0.25,seed=7"
///   SPE_FAULTS="crash_at_iteration=3"
///   SPE_FAULTS="artifact_write_fail_rate=1,data_io_fail_rate=0.5,seed=2"
///
/// The full grammar is documented in docs/robustness.md.
///
/// A malformed SPE_FAULTS aborts at startup with the offending token —
/// a fault plan that silently half-applies would defeat the point.
class FaultRegistry {
 public:
  /// The process-wide instance. First call reads SPE_FAULTS.
  static FaultRegistry& Instance();

  /// Replaces the active config (tests). Resets the fault RNG stream to
  /// config.seed so every Configure starts an identical sequence.
  void Configure(const FaultConfig& config);

  /// Turns every fault off (equivalent to Configure({})).
  void Reset();

  /// Parses a "key=value,key=value" spec into `config`. Returns false
  /// and sets `error` on an unknown key, bad number, or out-of-range
  /// value. Does not modify the registry.
  static bool ParseSpec(std::string_view spec, FaultConfig* config,
                        std::string* error);

  /// True when any fault is active (cheap; callers may use it to skip
  /// building failure-path-only state).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // ---- injection points ----------------------------------------------

  /// Worker-loop injection point: sleeps score_delay_ms (no-op when 0).
  void InjectScoreDelay() const;

  /// Model-IO injection point: one deterministic Bernoulli draw against
  /// model_io_fail_rate. True means the caller must fail the operation.
  bool ShouldFailModelIo();

  /// Transient-fault injection points: one deterministic Bernoulli draw
  /// each. True means the caller must throw TransientIoError (the
  /// callers in spe/io and spe/data do exactly that).
  bool ShouldFailArtifactWrite();
  bool ShouldFailArtifactRead();
  bool ShouldFailDataIo();

  /// Training crash point: SIGKILLs the process when `iteration`
  /// equals crash_at_iteration. Called by SelfPacedEnsemble::Fit right
  /// after each iteration's checkpoint publishes; a no-op otherwise.
  void MaybeCrashAtIteration(std::size_t iteration) const;

 private:
  FaultRegistry();

  /// One Bernoulli draw from the shared engine against the given rate
  /// field. Zero-rate faults never draw, so enabling one fault cannot
  /// shift another fault's deterministic sequence.
  bool DrawFailure(double FaultConfig::* rate);

  mutable std::mutex mu_;
  FaultConfig config_;
  std::mt19937_64 engine_{0};
  std::atomic<bool> enabled_{false};
};

/// Shorthand for FaultRegistry::Instance().
FaultRegistry& Faults();

}  // namespace spe

#endif  // SPE_COMMON_FAULT_H_
