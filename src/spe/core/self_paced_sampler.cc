#include "spe/core/self_paced_sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

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

/// The sampler over `n` samples whose hardness is at(i), read three
/// times per sample: the bins' range and counts, then the counting sort.
template <typename HardnessAt>
std::vector<std::size_t> UnderSample(std::size_t n, HardnessAt at,
                                     double alpha, std::size_t num_bins,
                                     std::size_t target_count, Rng& rng,
                                     std::vector<std::size_t>* bin_population_out) {
  SPE_CHECK_GE(alpha, 0.0);
  if (bin_population_out != nullptr) bin_population_out->clear();
  SPE_CHECK_GT(n, 0u);
  if (target_count >= n) {
    // Fewer majority samples than requested: take everything.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }

  // The table below holds sample indices in 4 bytes.
  SPE_CHECK_LE(n, std::size_t{std::numeric_limits<std::uint32_t>::max()})
      << "SelfPacedUnderSample indexes the majority set in 32 bits";

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
  // The one |N|-sized scratch buffer: 4 bytes per sample. Every draw runs
  // in place on a slice of it with the Index calls and swaps of
  // Rng::SampleWithoutReplacement, so the picks and the Rng state are
  // exactly those of the authors' per-bin draws.
  std::vector<std::uint32_t> table(n);
  if (weight_sum <= 0.0) {
    // Every non-empty bin is perfectly classified: plain random
    // under-sampling is the only sensible degenerate behaviour.
    std::iota(table.begin(), table.end(), std::uint32_t{0});
    PartialShuffle(table, target_count, rng);
    return std::vector<std::size_t>(table.begin(),
                                    table.begin() + target_count);
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
  // Counting sort by bin: bin b's members, in ascending sample order,
  // fill the table's slice [begin_b, begin_b + population[b]). A bin's
  // draw then picks its members where a draw over 0 .. population[b] - 1
  // picks their ranks, and bins draw in order. The output is allocated
  // before the sort: reserved after it, `spe_cli train` peaked 0.9 MB
  // higher in some 2-thread runs (heap layout; docs/performance.md,
  // "Live heap is not peak RSS").
  std::vector<std::size_t> selected(target_count);
  std::vector<std::size_t> cursor(num_bins);  // a bin's next free entry
  for (std::size_t b = 0, begin = 0; b < num_bins; ++b) {
    cursor[b] = begin;
    begin += population[b];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b =
        HardnessBinIndex(at(i), bins.min, bins.max, num_bins);
    table[cursor[b]++] = static_cast<std::uint32_t>(i);
  }
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

std::vector<std::size_t> SelfPacedUnderSample(
    std::span<const double> majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out) {
  return UnderSample(
      majority_hardness.size(),
      [majority_hardness](std::size_t i) { return majority_hardness[i]; },
      alpha, num_bins, target_count, rng, bin_population_out);
}

std::vector<std::size_t> SelfPacedUnderSample(
    const MajorityHardness& majority_hardness, double alpha,
    std::size_t num_bins, std::size_t target_count, Rng& rng,
    std::vector<std::size_t>* bin_population_out) {
  return majority_hardness.Visit([&](auto at) {
    return UnderSample(majority_hardness.size(), at, alpha, num_bins,
                       target_count, rng, bin_population_out);
  });
}

}  // namespace spe
