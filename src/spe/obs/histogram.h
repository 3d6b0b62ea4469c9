#ifndef SPE_OBS_HISTOGRAM_H_
#define SPE_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spe {
namespace obs {

/// Lock-free fixed-layout geometric histogram, generalized out of the
/// serve-layer latency histogram so every subsystem (serve latency,
/// batch sizes, span durations) shares one bucket geometry.
///
/// `sub_bits` sub-buckets per power of two: values below 2^sub_bits get
/// exact buckets; larger values share their top (sub_bits + 1)
/// significant bits, which bounds the relative error of any percentile
/// estimate at 1 / 2^sub_bits. sub_bits = 3 (12.5% error) is the serve
/// latency setting; sub_bits = 0 degenerates to plain power-of-two
/// buckets. Values past the last bucket land in the last bucket.
///
/// All methods are safe to call concurrently; Record is a handful of
/// relaxed atomics. Reads see a consistent-enough view for monitoring.
class GeometricHistogram {
 public:
  GeometricHistogram(int sub_bits, std::size_t num_buckets);

  GeometricHistogram(const GeometricHistogram&) = delete;
  GeometricHistogram& operator=(const GeometricHistogram&) = delete;

  void Record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t index) const {
    return counts_[index].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return counts_.size(); }
  int sub_bits() const { return sub_bits_; }

  /// Bucket for `value`, clamped to the last bucket.
  std::size_t BucketIndex(std::uint64_t value) const;
  /// Inclusive lower bound of bucket `index`.
  std::uint64_t BucketLowerBound(std::size_t index) const;

  /// The unclamped bucket geometry, exposed so layers that pin their own
  /// bucket count (ServerStats) share one formula instead of a copy.
  /// LowerBoundFor requires `index <= MaxIndexFor(sub_bits)` — larger
  /// indices name buckets whose lower bound does not fit in 64 bits.
  static std::size_t IndexFor(int sub_bits, std::uint64_t value);
  static std::uint64_t LowerBoundFor(int sub_bits, std::size_t index);
  /// Largest index IndexFor can produce: the bucket holding UINT64_MAX.
  /// The constructor rejects num_buckets beyond this, so every bucket a
  /// histogram owns has a representable lower bound.
  static std::size_t MaxIndexFor(int sub_bits);

 private:
  const int sub_bits_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace obs
}  // namespace spe

#endif  // SPE_OBS_HISTOGRAM_H_
