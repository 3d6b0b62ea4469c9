#include "spe/serve/batch_scorer.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "spe/common/check.h"
#include "spe/common/fault.h"
#include "spe/common/parallel.h"
#include "spe/kernels/flat_forest.h"
#include "spe/obs/trace.h"

namespace spe {

namespace {

std::shared_ptr<lifecycle::ModelRegistry> PrivateRegistry(
    std::unique_ptr<Classifier> model, std::size_t num_features) {
  SPE_CHECK(model != nullptr);
  SPE_CHECK_GT(num_features, 0u);
  auto registry = std::make_shared<lifecycle::ModelRegistry>();
  const std::string error =
      registry->Activate(registry->Install(std::move(model), num_features));
  SPE_CHECK(error.empty()) << error;
  return registry;
}

/// Parks a synchronous caller until `remaining` completions arrived;
/// keeps the first error to rethrow.
class CompletionLatch {
 public:
  explicit CompletionLatch(std::size_t remaining) : remaining_(remaining) {}

  void Done(std::exception_ptr error) {
    // Notified under the lock: the waiter owns the latch and may return
    // (destroying it) the moment it observes zero.
    std::lock_guard<std::mutex> lock(mu_);
    if (error != nullptr && error_ == nullptr) error_ = std::move(error);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_;
  std::exception_ptr error_;
};

}  // namespace

BatchScorer::BatchScorer(std::unique_ptr<Classifier> model,
                         std::size_t num_features, BatchScorerConfig config)
    : BatchScorer(PrivateRegistry(std::move(model), num_features),
                  std::move(config)) {}

BatchScorer::BatchScorer(std::shared_ptr<lifecycle::ModelRegistry> registry,
                         BatchScorerConfig config)
    : registry_(std::move(registry)),
      num_features_(registry_ != nullptr && registry_->active() != nullptr
                        ? registry_->active()->num_features()
                        : 0),
      config_(config),
      queue_(config.queue_capacity),
      shadow_batches_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_shadow_batches_total")),
      shadow_rows_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_shadow_rows_total")),
      shadow_disagree_total_(obs::MetricsRegistry::Global().GetCounter(
          "spe_lifecycle_shadow_disagree_total")),
      shadow_absdiff_ppm_(obs::MetricsRegistry::Global().GetHistogram(
          "spe_lifecycle_shadow_absdiff_ppm", /*sub_bits=*/3,
          obs::GeometricHistogram::IndexFor(3, 1'000'000) + 1)) {
  SPE_CHECK(registry_ != nullptr);
  SPE_CHECK(registry_->active() != nullptr)
      << "the registry must have an active version before serving";
  SPE_CHECK_GT(num_features_, 0u);
  SPE_CHECK_GT(config_.max_batch_size, 0u);
  if (config_.degrade_high_watermark > 0) {
    SPE_CHECK(registry_->active()->prefix_voter() != nullptr)
        << "degradation watermarks require an ensemble model that supports "
           "prefix scoring (PrefixVoter); "
        << registry_->active()->model().Name() << " does not";
    SPE_CHECK_GT(config_.degrade_prefix, 0u);
    SPE_CHECK_LT(config_.degrade_low_watermark, config_.degrade_high_watermark)
        << "degrade_low_watermark must be below degrade_high_watermark";
  }
  const std::size_t n =
      config_.num_workers > 0 ? config_.num_workers : NumThreads();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  metrics_collector_ =
      obs::MetricsRegistry::Global().AddCollector([this](std::string& out) {
        stats_.AppendExposition(out);
        out += "# TYPE spe_serve_queue_depth gauge\nspe_serve_queue_depth ";
        out += std::to_string(queue_.size());
        out += "\n# TYPE spe_serve_degraded gauge\nspe_serve_degraded ";
        out += degraded_.load(std::memory_order_relaxed) ? "1\n" : "0\n";
        out += "# TYPE spe_serve_workers gauge\nspe_serve_workers ";
        out += std::to_string(workers_.size());
        out += "\n# TYPE spe_serve_kernel_flat gauge\nspe_serve_kernel_flat ";
        const auto active = registry_->active();
        out += active != nullptr && active->kernel()[0] == 'f' ? "1\n" : "0\n";
        // Which representation is actually serving ("flat", "flat_f32",
        // "flat_binned" or "reference") plus the descent ISA — the
        // label an operator checks after flipping --kernel-mode.
        out += "# TYPE spe_serve_kernel_info gauge\nspe_serve_kernel_info{";
        out += "kernel=\"";
        out += active != nullptr ? active->kernel() : "reference";
        out += "\",simd=\"";
        out += kernels::SimdEnabled() ? kernels::SimdIsa() : "scalar";
        out += "\"} 1\n";
      });
}

BatchScorer::~BatchScorer() { Shutdown(); }

void BatchScorer::SubmitCallback(std::vector<double> features,
                                 std::chrono::steady_clock::time_point deadline,
                                 ScoreCallback done) {
  SPE_CHECK_EQ(features.size(), num_features_)
      << "submitted row width does not match the model schema";
  SPE_CHECK(done != nullptr);
  Request req;
  req.features = std::move(features);
  req.done = std::move(done);
  req.enqueued = std::chrono::steady_clock::now();
  req.deadline = deadline;
  // The Keep variants leave `req` intact on refusal, so the rejection
  // can travel through the caller's own callback with its pooled
  // feature buffer attached — nothing is lost inside the queue.
  const bool accepted = config_.overflow == OverflowPolicy::kBlock
                            ? queue_.PushKeep(req)
                            : queue_.TryPushKeep(req);
  if (!accepted) {
    const bool closed = queue_.closed();
    if (!closed) stats_.RecordShed();
    req.done({}, std::make_exception_ptr(ScorerOverloaded(
                  closed ? "scorer is shut down" : "request queue full")),
             std::move(req.features));
  }
}

double BatchScorer::Score(std::vector<double> features) {
  CompletionLatch latch(1);
  double proba = 0.0;
  SubmitCallback(std::move(features), kNoDeadline,
                 [&latch, &proba](ScoreResult result, std::exception_ptr error,
                                  std::vector<double>) {
                   proba = result.proba;
                   latch.Done(std::move(error));
                 });
  latch.Wait();
  return proba;
}

std::vector<double> BatchScorer::ScoreBatch(const DatasetView& rows) {
  SPE_CHECK_EQ(rows.num_features(), num_features_);
  rows.CheckAlive();
  std::vector<double> probs(rows.num_rows());
  CompletionLatch latch(rows.num_rows());
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    Request req;
    req.features.resize(num_features_);
    rows.CopyRowTo(i, req.features);
    // Two pointers: fits std::function's inline buffer, no allocation.
    double* slot = &probs[i];
    req.done = [slot, &latch](ScoreResult result, std::exception_ptr error,
                              std::vector<double>) {
      *slot = result.proba;
      latch.Done(std::move(error));
    };
    req.enqueued = std::chrono::steady_clock::now();
    // Offline scoring always blocks: shedding rows out of a file-scoring
    // run would silently truncate the output.
    SPE_CHECK(queue_.Push(std::move(req))) << "scorer is shut down";
  }
  latch.Wait();
  return probs;
}

void BatchScorer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();
    for (auto& w : workers_) w.join();
  });
}

void BatchScorer::ShadowScore(const DatasetView& rows,
                              std::span<const double> active_probs,
                              const lifecycle::ModelVersion& active) {
  const auto shadow = registry_->shadow();
  if (shadow == nullptr || &*shadow == &active) return;
  if (shadow->num_features() != num_features_) return;
  const std::uint64_t tick =
      shadow_tick_.fetch_add(1, std::memory_order_relaxed);
  if (tick % config_.shadow_every != 0) return;
  const obs::TraceSpan span("serve.shadow_batch");
  const std::vector<double> shadow_probs = shadow->model().PredictProba(rows);
  shadow_batches_total_.Add();
  shadow_rows_total_.Add(rows.num_rows());
  std::uint64_t disagreements = 0;
  for (std::size_t i = 0; i < shadow_probs.size(); ++i) {
    const double diff = std::abs(shadow_probs[i] - active_probs[i]);
    // Histogram values are integers; parts-per-million keeps three
    // useful significant digits of a [0, 1] probability delta.
    shadow_absdiff_ppm_.Record(
        static_cast<std::uint64_t>(std::lround(diff * 1e6)));
    if ((shadow_probs[i] >= 0.5) != (active_probs[i] >= 0.5)) ++disagreements;
  }
  if (disagreements > 0) shadow_disagree_total_.Add(disagreements);
}

void BatchScorer::WorkerLoop() {
  std::vector<Request> batch;
  std::vector<Request*> live;  // batch members still worth scoring
  // Per-worker staging reused across batches: requests land in a flat
  // row-major block served to the model through a borrowed view, so the
  // dispatch path never builds a columnar Dataset per batch.
  std::vector<double> row_block;
  std::vector<int> row_labels;
  const std::vector<FeatureKind> kinds(num_features_, FeatureKind::kNumerical);
  const std::chrono::microseconds delay(config_.max_batch_delay_us);
  while (queue_.PopBatch(batch, config_.max_batch_size, delay) > 0) {
    // Fault point: simulate a slow model *before* deadline triage, so a
    // fault-injected run deterministically expires queued deadlines.
    Faults().InjectScoreDelay();

    // One lock-free snapshot per batch: the whole batch — scoring,
    // degradation, shadow diffing, drift observation — runs against
    // this version even if a reload swaps the active pointer mid-batch.
    // The shared_ptr keeps the version (and its compiled kernel) alive
    // until the last in-flight batch lets go.
    const std::shared_ptr<const lifecycle::ModelVersion> version =
        registry_->active();

    // Watermark controller. The signal is the backlog left behind this
    // pop — what the *next* request will sit behind. Shared mode with
    // hysteresis: all workers degrade together, which keeps the
    // "degraded" marking consistent with what clients experience.
    bool degraded = false;
    if (config_.degrade_high_watermark > 0) {
      const std::size_t backlog = queue_.size();
      bool mode = degraded_.load(std::memory_order_relaxed);
      if (!mode && backlog >= config_.degrade_high_watermark) {
        mode = true;
      } else if (mode && backlog <= config_.degrade_low_watermark) {
        mode = false;
      }
      degraded_.store(mode, std::memory_order_relaxed);
      // A hot-reloaded version might not support prefix scoring even
      // though the boot-time one did; it serves full ensembles instead
      // of aborting mid-traffic.
      degraded = mode && version->prefix_voter() != nullptr;
    }

    // Deadline triage: a request whose deadline passed while queued is
    // failed fast and never reaches the model.
    const auto now = std::chrono::steady_clock::now();
    live.clear();
    live.reserve(batch.size());
    for (Request& r : batch) {
      if (r.deadline != kNoDeadline && r.deadline < now) {
        stats_.RecordDeadlineExpired();
        r.done({}, std::make_exception_ptr(DeadlineExceeded()),
               std::move(r.features));
      } else {
        live.push_back(&r);
      }
    }
    if (live.empty()) continue;

    try {
      // Batch granularity keeps tracing out of the per-row path. The
      // span closes before any request completes, so a client that has
      // seen its response (and then scrapes !stats) also sees the span
      // that scored it.
      std::vector<double> probs;
      row_block.resize(live.size() * num_features_);
      row_labels.assign(live.size(), 0);
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::vector<double>& src = live[i]->features;
        std::copy(src.begin(), src.end(),
                  row_block.begin() +
                      static_cast<std::ptrdiff_t>(i * num_features_));
      }
      const DatasetView rows = DatasetView::FromRows(
          row_block.data(), live.size(), num_features_, row_labels.data(),
          kinds);
      {
        const obs::TraceSpan span("serve.score_batch");
        probs = degraded ? version->prefix_voter()->PredictProbaPrefix(
                               rows, config_.degrade_prefix)
                         : version->model().PredictProba(rows);
      }
      if (!degraded) {
        // Lifecycle taps see only full-fidelity scores: a degraded
        // prefix shifts the distribution for reasons that are about
        // load, not data, and would poison both comparisons.
        if (config_.shadow_every > 0) ShadowScore(rows, probs, *version);
        if (auto* drift = version->drift()) {
          drift->ObserveBatch(probs);
          drift->Publish();
        }
      }
      const auto done = std::chrono::steady_clock::now();
      stats_.RecordBatch(live.size(), degraded);
      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto waited = done - live[i]->enqueued;
        stats_.RecordRequest(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(waited)
                .count()));
        live[i]->done({probs[i], degraded}, nullptr,
                      std::move(live[i]->features));
      }
    } catch (...) {
      // A model that throws poisons only the requests in this batch —
      // the worker and every other queued request keep going.
      const std::exception_ptr error = std::current_exception();
      for (Request* r : live) r->done({}, error, std::move(r->features));
    }
  }
}

}  // namespace spe
