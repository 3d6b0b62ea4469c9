#ifndef SPE_SERVE_BATCH_SCORER_H_
#define SPE_SERVE_BATCH_SCORER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/common/mpmc_queue.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/obs/metrics.h"
#include "spe/serve/server_stats.h"

namespace spe {

/// What a producer experiences when the request queue is full.
enum class OverflowPolicy {
  kBlock,  // SubmitCallback blocks until a worker frees queue space
  kShed,   // SubmitCallback completes at once with ScorerOverloaded
};

struct BatchScorerConfig {
  /// Upper bound on rows per model dispatch. Larger batches amortize
  /// per-call overhead (virtual dispatch, ensemble loop setup) at the
  /// cost of tail latency for the first row of the batch.
  std::size_t max_batch_size = 256;
  /// How long a worker holding a partial batch waits for more rows
  /// before dispatching what it has. 0 dispatches immediately (lowest
  /// latency, smallest batches).
  std::size_t max_batch_delay_us = 200;
  /// Worker threads running the model. 0 means NumThreads().
  std::size_t num_workers = 0;
  /// Bound on queued (accepted but not yet dispatched) requests.
  std::size_t queue_capacity = 4096;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Overload degradation (0 disables): once the backlog at dispatch
  /// time reaches `degrade_high_watermark`, batches are scored with only
  /// the first `degrade_prefix` members of the ensemble
  /// (PrefixVoter::PredictProbaPrefix) — a cheaper but still valid SPE
  /// hypothesis — until the backlog falls to `degrade_low_watermark`
  /// (hysteresis, so the mode does not flap around one threshold).
  /// Requires the model to implement PrefixVoter when enabled.
  std::size_t degrade_high_watermark = 0;
  std::size_t degrade_low_watermark = 0;
  /// Ensemble members used while degraded. Clamped to the ensemble size.
  std::size_t degrade_prefix = 1;
  /// Shadow scoring cadence: when the registry designates a shadow
  /// version, every `shadow_every`-th non-degraded batch is also scored
  /// by it and the predictions are diffed (spe_lifecycle_shadow_*
  /// metrics). The shadow result never reaches a client. 0 disables;
  /// 1 shadows every batch.
  std::size_t shadow_every = 8;
};

/// Delivered (as the completion's error) when a request is shed under
/// OverflowPolicy::kShed or submitted after Shutdown.
class ScorerOverloaded : public std::runtime_error {
 public:
  explicit ScorerOverloaded(const char* what) : std::runtime_error(what) {}
};

/// Delivered (as the completion's error) when a request's deadline
/// expired while it was still queued. The request was never scored.
/// what() is the wire-stable token clients match on.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("DEADLINE_EXCEEDED") {}
};

/// What a completed request resolves to: the probability plus whether it
/// was produced by a degraded (ensemble-prefix) dispatch, so transports
/// can mark the response.
struct ScoreResult {
  double proba = 0.0;
  bool degraded = false;
};

/// Online scoring engine: accepts single rows from any number of
/// threads, coalesces them into micro-batches, and dispatches each
/// batch to a fixed pool of workers that run the active model's
/// PredictProba. Because every classifier in this library computes
/// probabilities row-independently, the micro-batch boundaries are
/// invisible in the results: a row served here is bit-identical to the
/// same row scored in-process via PredictProba.
///
/// Model lifecycle: the scorer reads its model through a
/// lifecycle::ModelRegistry. Each worker snapshots the active version
/// once per batch (one pointer copy under the registry's role lock), so
/// a hot reload (ModelRegistry::Activate) takes effect at the next batch
/// boundary: every batch is scored entirely by one version — a response is
/// bit-identical to that version scored standalone, never a
/// mid-ensemble blend — and no request is dropped or delayed by the
/// swap. When a shadow version is designated, a sampled fraction of
/// batches is re-scored by it and prediction diffs are exported; when
/// the active version carries a training hardness histogram (v3
/// bundles), live scores feed its drift detector.
///
/// Robustness contract: a request may carry a deadline — if it expires
/// while the request is still queued, it completes at once with
/// DeadlineExceeded and the model never sees the row. Under sustained
/// overload (see BatchScorerConfig watermarks) batches are scored with
/// an ensemble prefix and their results are marked `degraded`.
///
/// Lifecycle: construct (workers start immediately), SubmitCallback /
/// Score / ScoreBatch from any thread, Shutdown (or destroy) to drain.
/// Shutdown refuses new work but completes every accepted request — no
/// completion is ever abandoned.
class BatchScorer {
 public:
  /// Sentinel for "no deadline".
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  /// Takes ownership of a *fitted* model: installs it as version 1 of a
  /// private registry and activates it. `num_features` is the width
  /// submitted rows must have (a Dataset schema is reconstructed per
  /// batch).
  BatchScorer(std::unique_ptr<Classifier> model, std::size_t num_features,
              BatchScorerConfig config = {});

  /// Serves whatever `registry` designates active (hot reload, shadow
  /// scoring and drift detection flow through the registry). The
  /// registry must already have an active version; its feature width
  /// becomes the scorer's schema. The registry must outlive the scorer.
  BatchScorer(std::shared_ptr<lifecycle::ModelRegistry> registry,
              BatchScorerConfig config = {});

  ~BatchScorer();

  BatchScorer(const BatchScorer&) = delete;
  BatchScorer& operator=(const BatchScorer&) = delete;

  /// Completion signature for SubmitCallback. Exactly one of
  /// result/error is meaningful: `error` is null on success, else it
  /// holds ScorerOverloaded, DeadlineExceeded, or a model exception.
  /// `features` is the submitted vector handed back so the caller can
  /// pool it — its contents are unspecified, its capacity is intact.
  using ScoreCallback = std::function<void(
      ScoreResult result, std::exception_ptr error,
      std::vector<double> features)>;

  /// Enqueues one row; `done` is invoked exactly once with
  /// {P(y=1 | x), degraded} when the request completes — on a worker
  /// thread normally, or inline on the submitting thread when the
  /// request is shed. Under kBlock this blocks while the queue is full;
  /// under kShed a full queue completes it at once with
  /// ScorerOverloaded, as does any submission after Shutdown. A
  /// `deadline` other than kNoDeadline completes it with
  /// DeadlineExceeded if it passes before the request is dispatched.
  /// `done` must not block: it runs on the scoring workers, so a slow
  /// callback stalls batch dispatch.
  void SubmitCallback(std::vector<double> features,
                      std::chrono::steady_clock::time_point deadline,
                      ScoreCallback done);

  /// Convenience: SubmitCallback + wait, probability only. Throws
  /// ScorerOverloaded / DeadlineExceeded / the model's exception.
  double Score(std::vector<double> features);

  /// Scores every row of `rows` through the batching engine and returns
  /// probabilities in row order. Always blocks for queue space (even
  /// under kShed — offline scoring must not drop rows), so the offline
  /// CLI path and the online path share one dispatch code path. Throws
  /// the model's exception if a batch fails.
  std::vector<double> ScoreBatch(const DatasetView& rows);

  /// Refuses new submissions, waits for workers to drain every queued
  /// request, and joins them. Idempotent; called by the destructor.
  void Shutdown();

  /// True while the watermark controller has degradation engaged.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// The currently active model. The reference stays valid for the
  /// registry's lifetime (versions are never evicted), but a concurrent
  /// reload can make it stale — scoring paths snapshot the version
  /// instead of calling this.
  const Classifier& model() const { return registry_->active()->model(); }
  lifecycle::ModelRegistry& registry() { return *registry_; }
  std::size_t num_features() const { return num_features_; }
  const BatchScorerConfig& config() const { return config_; }
  const ServerStats& stats() const { return stats_; }

  /// "flat" or "reference": the inference kernel of the currently
  /// active version (resolved — and the flat program compiled — when
  /// the version was loaded). Exposed on the metrics page as
  /// spe_serve_kernel_flat and stamped into bench JSON.
  const char* kernel() const { return registry_->active()->kernel(); }

 private:
  struct Request {
    std::vector<double> features;
    ScoreCallback done;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
  };

  void WorkerLoop();
  void ShadowScore(const DatasetView& rows, std::span<const double> active_probs,
                   const lifecycle::ModelVersion& active);

  const std::shared_ptr<lifecycle::ModelRegistry> registry_;
  const std::size_t num_features_;
  const BatchScorerConfig config_;
  ServerStats stats_;
  BoundedQueue<Request> queue_;
  std::atomic<bool> degraded_{false};
  /// Dispatch counter driving the every-Nth shadow cadence; shared by
  /// all workers so the sampled fraction holds regardless of how
  /// batches spread across them.
  std::atomic<std::uint64_t> shadow_tick_{0};
  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;

  obs::Counter& shadow_batches_total_;
  obs::Counter& shadow_rows_total_;
  obs::Counter& shadow_disagree_total_;
  obs::GeometricHistogram& shadow_absdiff_ppm_;

  /// Publishes this scorer's stats on the global metrics registry
  /// ("!stats" / --metrics-dump). Declared last so it unregisters
  /// before any member it reads is destroyed.
  obs::CollectorHandle metrics_collector_;
};

}  // namespace spe

#endif  // SPE_SERVE_BATCH_SCORER_H_
