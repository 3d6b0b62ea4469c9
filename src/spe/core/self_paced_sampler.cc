#include "spe/core/self_paced_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "spe/common/check.h"
#include "spe/obs/trace.h"

namespace spe {
namespace {

/// Draws `count` entries of `pool` without replacement into
/// pool[0, count), in place: the Index calls and swaps of
/// Rng::SampleWithoutReplacement(pool.size(), count), which runs them on
/// 0, 1, 2, .... Swaps move entries by position only, so where that
/// returns pick r this leaves pool[r] as it was before the call.
void PartialShuffle(std::span<std::uint32_t> pool, std::size_t count,
                    Rng& rng) {
  SPE_CHECK_LE(count, pool.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + rng.Index(pool.size() - i);
    std::swap(pool[i], pool[j]);
  }
}

/// Majority sample m is m itself: the ordinal form, whose picks index
/// the hardness it was given.
struct Ordinals {
  std::size_t n;

  std::size_t row_bound() const { return n; }
  template <typename Visit>
  void ForEach(Visit visit) const {
    for (std::size_t m = 0; m < n; ++m) visit(m, m);
  }
};

/// Majority sample m is the m-th label-0 row of `rows` (columnar), in
/// view order: the row form, whose picks are rows of the view. Each
/// enumeration checks that `rows` has exactly n label-0 rows.
struct Label0Rows {
  const DatasetView& rows;
  std::size_t n;

  std::size_t row_bound() const { return rows.num_rows(); }
  template <typename Visit>
  void ForEach(Visit visit) const {
    // Local copies, so the loop keeps them in registers.
    const DatasetView view = rows;
    const int* labels = view.parent()->labels().data();
    std::size_t m = 0;
    for (std::size_t r = 0; r < view.num_rows(); ++r) {
      if (labels[view.RowIndex(r)] != 0) continue;
      SPE_CHECK_LT(m, n) << "more label-0 rows than majority samples";
      visit(m++, r);
    }
    SPE_CHECK_EQ(m, n) << "fewer label-0 rows than majority samples";
  }
};

/// Every sample's row, in sample order.
template <typename Samples>
std::vector<std::size_t> AllRows(std::size_t n, const Samples& samples) {
  std::vector<std::size_t> all(n);
  samples.ForEach([&](std::size_t m, std::size_t row) { all[m] = row; });
  return all;
}

/// `count` of the n samples drawn uniformly without replacement, as
/// rows: `table` (n entries) is filled with every sample's row and
/// drawn in place, so the picks are the rows at the ordinals
/// Rng::SampleWithoutReplacement(n, count) returns, in its order.
template <typename Samples>
std::vector<std::size_t> UniformPick(std::vector<std::uint32_t>& table,
                                     const Samples& samples,
                                     std::size_t count, Rng& rng) {
  samples.ForEach([&](std::size_t m, std::size_t row) {
    table[m] = static_cast<std::uint32_t>(row);
  });
  PartialShuffle(table, count, rng);
  return std::vector<std::size_t>(table.begin(), table.begin() + count);
}

/// The table below holds rows in 4 bytes.
template <typename Samples>
void CheckRowsFitInTable(const Samples& samples) {
  SPE_CHECK_LE(samples.row_bound(),
               std::size_t{std::numeric_limits<std::uint32_t>::max()})
      << "SelfPacedUnderSample indexes the majority set in 32 bits";
}

/// The sampler over `n` samples whose hardness is at(m), read three
/// times per sample: the bins' range and counts, then the counting sort.
/// Picks are `samples`' rows.
template <typename HardnessAt, typename Samples>
std::vector<std::size_t> UnderSample(std::size_t n, HardnessAt at,
                                     const Samples& samples, double alpha,
                                     std::size_t num_bins,
                                     std::size_t target_count, Rng& rng,
                                     std::vector<std::size_t>* bin_population_out) {
  SPE_CHECK_GE(alpha, 0.0);
  if (bin_population_out != nullptr) bin_population_out->clear();
  SPE_CHECK_GT(n, 0u);
  // Fewer majority samples than requested: take everything.
  if (target_count >= n) return AllRows(n, samples);
  CheckRowsFitInTable(samples);

  const HardnessBins bins = [&] {
    const obs::TraceSpan span("spe.fit.bin_harmonize");
    return ComputeHardnessBinsAt(n, at, num_bins);
  }();

  // Unnormalized bin weights p_l = 1 / (h_l + alpha); empty bins get 0.
  // alpha = inf (allowed by the tan schedule's final iteration) makes all
  // non-empty bins equally weighted.
  std::vector<double> weight(num_bins, 0.0);
  double weight_sum = 0.0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (bins.population[b] == 0) continue;
    if (std::isinf(alpha)) {
      weight[b] = 1.0;
    } else if (bins.mean_hardness[b] + alpha > 0.0) {
      weight[b] = 1.0 / (bins.mean_hardness[b] + alpha);
    }
    // else: an all-trivial bin at alpha = 0 would get infinite weight;
    // following the authors' released implementation such bins get
    // weight 0 — harmonizing a zero contribution needs zero samples.
    // (Tree bases routinely emit hardness exactly 0.)
    weight_sum += weight[b];
  }
  // The one |N|-sized scratch buffer: 4 bytes per sample, holding its
  // row. Every draw runs in place on a slice of it with the Index calls
  // and swaps of Rng::SampleWithoutReplacement, so the picks and the Rng
  // state are exactly those of the authors' per-bin draws.
  std::vector<std::uint32_t> table(n);
  if (weight_sum <= 0.0) {
    // Every non-empty bin is perfectly classified: plain random
    // under-sampling is the only sensible degenerate behaviour.
    return UniformPick(table, samples, target_count, rng);
  }

  // Apportion the target across bins by largest remainder so that the
  // realized quotas stay proportional to p_l even when the per-bin
  // shares are fractional (small |P|, many bins). Flooring instead would
  // leave most of the subset to an unweighted top-up, silently turning
  // SPE into random under-sampling on small-minority data.
  const std::vector<std::size_t>& population = bins.population;
  std::vector<std::size_t> quota(num_bins, 0);
  std::vector<std::pair<double, std::size_t>> remainder;  // (frac, bin)
  std::size_t assigned = 0;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (population[b] == 0) continue;
    const double share =
        weight[b] / weight_sum * static_cast<double>(target_count);
    quota[b] = std::min(static_cast<std::size_t>(share), population[b]);
    assigned += quota[b];
    if (quota[b] < population[b]) {
      remainder.emplace_back(share - std::floor(share), b);
    }
  }
  // Hand out the remaining slots by descending fractional share, looping
  // (with whole extra units) while saturated bins drop out.
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  while (assigned < target_count) {
    bool progressed = false;
    for (auto& [frac, b] : remainder) {
      if (assigned >= target_count) break;
      if (quota[b] >= population[b]) continue;
      ++quota[b];
      ++assigned;
      progressed = true;
    }
    SPE_CHECK(progressed) << "apportionment stuck";  // implies target > n
  }

  if (bin_population_out != nullptr) {
    bin_population_out->assign(quota.begin(), quota.end());
  }
  // Counting sort by bin: bin b's members' rows, in ascending sample
  // order, fill the table's slice [begin_b, begin_b + population[b]). A
  // bin's draw then picks its members where a draw over
  // 0 .. population[b] - 1 picks their ranks, and bins draw in order.
  // The output is allocated before the sort: reserved after it,
  // `spe_cli train` peaked 0.9 MB higher in some 2-thread runs (heap
  // layout; docs/performance.md, "Live heap is not peak RSS").
  std::vector<std::size_t> selected(target_count);
  std::vector<std::size_t> cursor(num_bins);  // a bin's next free entry
  for (std::size_t b = 0, begin = 0; b < num_bins; ++b) {
    cursor[b] = begin;
    begin += population[b];
  }
  samples.ForEach([&](std::size_t m, std::size_t row) {
    const std::size_t b =
        HardnessBinIndex(at(m), bins.min, bins.max, num_bins);
    table[cursor[b]++] = static_cast<std::uint32_t>(row);
  });
  for (std::size_t b = 0, begin = 0, slot = 0; b < num_bins; ++b) {
    const std::span<std::uint32_t> slice(table.data() + begin, population[b]);
    PartialShuffle(slice, quota[b], rng);
    std::copy_n(slice.begin(), quota[b], selected.begin() + slot);
    begin += population[b];
    slot += quota[b];
  }
  return selected;
}

}  // namespace

std::size_t CountMajorityRows(const DatasetView& rows) {
  rows.CheckAlive();
  SPE_CHECK(rows.parent() != nullptr)
      << "majority rows are enumerated over a columnar view";
  const DatasetView view = rows;
  const int* labels = view.parent()->labels().data();
  std::size_t count = 0;
  for (std::size_t r = 0; r < view.num_rows(); ++r) {
    count += labels[view.RowIndex(r)] == 0 ? 1 : 0;
  }
  return count;
}

std::vector<std::size_t> SelfPacedUnderSample(
    std::span<const double> majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out) {
  const std::size_t n = majority_hardness.size();
  return UnderSample(
      n, [majority_hardness](std::size_t i) { return majority_hardness[i]; },
      Ordinals{n}, alpha, num_bins, target_count, rng, bin_population_out);
}

std::vector<std::size_t> SelfPacedUnderSample(
    const MajorityHardness& majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out) {
  const std::size_t n = majority_hardness.size();
  return majority_hardness.Visit([&](auto at) {
    return UnderSample(n, at, Ordinals{n}, alpha, num_bins, target_count, rng,
                       bin_population_out);
  });
}

std::vector<std::size_t> SelfPacedUnderSample(
    const MajorityHardness& majority_hardness, const DatasetView& rows,
    double alpha, std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out) {
  rows.CheckAlive();
  SPE_CHECK(rows.parent() != nullptr)
      << "majority rows are enumerated over a columnar view";
  const std::size_t n = majority_hardness.size();
  return majority_hardness.Visit([&](auto at) {
    return UnderSample(n, at, Label0Rows{rows, n}, alpha, num_bins,
                       target_count, rng, bin_population_out);
  });
}

std::vector<std::size_t> SampleMajorityRows(const DatasetView& rows,
                                            std::size_t count, Rng& rng) {
  const std::size_t n = CountMajorityRows(rows);
  const Label0Rows samples{rows, n};
  if (count >= n) return AllRows(n, samples);
  CheckRowsFitInTable(samples);
  std::vector<std::uint32_t> table(n);
  return UniformPick(table, samples, count, rng);
}

}  // namespace spe
