#include "spe/obs/histogram.h"

#include <bit>
#include <limits>

#include "spe/common/check.h"

namespace spe {
namespace obs {

GeometricHistogram::GeometricHistogram(int sub_bits, std::size_t num_buckets)
    : sub_bits_(sub_bits), counts_(num_buckets) {
  SPE_CHECK_GE(sub_bits, 0);
  SPE_CHECK_LE(sub_bits, 8);
  SPE_CHECK_GT(num_buckets, 0u);
  SPE_CHECK_LE(num_buckets - 1, MaxIndexFor(sub_bits))
      << "bucket lower bounds past the one holding UINT64_MAX overflow";
}

std::size_t GeometricHistogram::MaxIndexFor(int sub_bits) {
  return IndexFor(sub_bits, std::numeric_limits<std::uint64_t>::max());
}

std::size_t GeometricHistogram::IndexFor(int sub_bits, std::uint64_t value) {
  const std::uint64_t sub = std::uint64_t{1} << sub_bits;
  if (value < sub) return static_cast<std::size_t>(value);
  const int msb = std::bit_width(value) - 1;  // >= sub_bits
  const std::uint64_t low = (value >> (msb - sub_bits)) & (sub - 1);
  return static_cast<std::size_t>(msb - sub_bits + 1) * sub +
         static_cast<std::size_t>(low);
}

std::uint64_t GeometricHistogram::LowerBoundFor(int sub_bits,
                                                std::size_t index) {
  const std::uint64_t sub = std::uint64_t{1} << sub_bits;
  if (index < sub) return index;
  const std::uint64_t octave = index / sub - 1;
  const std::uint64_t low = index % sub;
  return (sub + low) << octave;
}

std::size_t GeometricHistogram::BucketIndex(std::uint64_t value) const {
  const std::size_t index = IndexFor(sub_bits_, value);
  return index < counts_.size() ? index : counts_.size() - 1;
}

std::uint64_t GeometricHistogram::BucketLowerBound(std::size_t index) const {
  return LowerBoundFor(sub_bits_, index);
}

void GeometricHistogram::Record(std::uint64_t value) {
  counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace spe
