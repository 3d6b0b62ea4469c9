#ifndef SPE_SERVE_SERVER_STATS_H_
#define SPE_SERVE_SERVER_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "spe/obs/histogram.h"

namespace spe {

/// Lock-free (atomic counter) request/latency accounting shared by every
/// worker and producer thread of a BatchScorer, built on the shared
/// obs::GeometricHistogram geometry. All Record* methods are safe to
/// call concurrently. The metrics exposition (AppendExposition) is the
/// one rendering of these counters; the accessors read them one at a
/// time, so a reader racing the recorders can see counts mid-update
/// across counters, which is fine for observability.
class ServerStats {
 public:
  ServerStats();

  /// One completed request with end-to-end (enqueue -> response ready)
  /// latency in microseconds.
  void RecordRequest(std::uint64_t latency_us);

  /// One micro-batch of `size` rows dispatched to the model.
  /// `degraded` marks batches scored with an ensemble prefix under
  /// overload degradation.
  void RecordBatch(std::uint64_t size, bool degraded = false);

  /// One request rejected because the queue was full (shed policy).
  void RecordShed();

  /// One request whose deadline expired while queued (failed without
  /// being scored).
  void RecordDeadlineExpired();

  /// Completed single-row requests (spe_serve_requests_total).
  std::uint64_t rows() const { return latency_.count(); }
  /// Micro-batches dispatched to the model (spe_serve_batches_total).
  std::uint64_t batches() const { return batch_.count(); }
  /// Rows inside those batches (spe_serve_batch_rows_total).
  std::uint64_t batch_rows() const { return batch_.sum(); }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::uint64_t deadline_expired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  std::uint64_t degraded_batches() const {
    return degraded_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t degraded_rows() const {
    return degraded_rows_.load(std::memory_order_relaxed);
  }

  /// Appends this instance's metrics in exposition format: the
  /// spe_serve_* counter family plus the spe_serve_latency_us and
  /// spe_serve_batch_size histograms (docs/observability.md).
  void AppendExposition(std::string& out) const;

  /// Number of latency histogram buckets (geometric; see
  /// BucketLowerBound). 488 is the largest count whose top bucket's
  /// lower bound still fits in 64 bits — anything slower lands in the
  /// last bucket. Exposed for tests.
  static constexpr std::size_t kLatencyBuckets = 488;

  /// Index of the histogram bucket for a microsecond value, and the
  /// inclusive lower bound of bucket `index`. Thin wrappers over the
  /// shared obs::GeometricHistogram geometry; exposed for tests.
  static std::size_t BucketIndex(std::uint64_t us);
  static std::uint64_t BucketLowerBound(std::size_t index);

 private:
  // Power-of-two batch-size buckets: sub_bits=0 gives size 0 a bucket
  // of its own, then bucket i + 1 holds sizes [2^i, 2^(i+1)) for i < 24.
  static constexpr std::size_t kBatchBuckets = 25;

  obs::GeometricHistogram latency_;
  obs::GeometricHistogram batch_;
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> degraded_batches_{0};
  std::atomic<std::uint64_t> degraded_rows_{0};
};

}  // namespace spe

#endif  // SPE_SERVE_SERVER_STATS_H_
