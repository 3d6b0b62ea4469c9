#include "spe/serve/server_stats.h"

#include "spe/obs/metrics.h"

namespace spe {
namespace {

// 8 sub-buckets per power of two: values below 8us get exact buckets,
// larger values share the top three significant bits. This bounds the
// relative error of any percentile estimate at 1/8 = 12.5%.
constexpr int kLatencySubBits = 3;

void AppendCounter(std::string& out, const char* name, std::uint64_t value) {
  out += "# TYPE ";
  out += name;
  out += " counter\n";
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

}  // namespace

std::size_t ServerStats::BucketIndex(std::uint64_t us) {
  const std::size_t index = obs::GeometricHistogram::IndexFor(kLatencySubBits, us);
  return index < kLatencyBuckets ? index : kLatencyBuckets - 1;
}

std::uint64_t ServerStats::BucketLowerBound(std::size_t index) {
  return obs::GeometricHistogram::LowerBoundFor(kLatencySubBits, index);
}

ServerStats::ServerStats()
    : latency_(kLatencySubBits, kLatencyBuckets), batch_(0, kBatchBuckets) {}

void ServerStats::RecordRequest(std::uint64_t latency_us) {
  latency_.Record(latency_us);
}

void ServerStats::RecordBatch(std::uint64_t size, bool degraded) {
  batch_.Record(size);
  if (degraded) {
    degraded_batches_.fetch_add(1, std::memory_order_relaxed);
    degraded_rows_.fetch_add(size, std::memory_order_relaxed);
  }
}

void ServerStats::RecordShed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::RecordDeadlineExpired() {
  deadline_expired_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::AppendExposition(std::string& out) const {
  AppendCounter(out, "spe_serve_requests_total", rows());
  AppendCounter(out, "spe_serve_batches_total", batches());
  AppendCounter(out, "spe_serve_batch_rows_total", batch_rows());
  AppendCounter(out, "spe_serve_shed_total", shed());
  AppendCounter(out, "spe_serve_deadline_expired_total", deadline_expired());
  AppendCounter(out, "spe_serve_degraded_batches_total", degraded_batches());
  AppendCounter(out, "spe_serve_degraded_rows_total", degraded_rows());
  out += "# TYPE spe_serve_latency_us histogram\n";
  obs::AppendHistogramExposition(out, "spe_serve_latency_us", latency_);
  out += "# TYPE spe_serve_batch_size histogram\n";
  obs::AppendHistogramExposition(out, "spe_serve_batch_size", batch_);
}

}  // namespace spe
