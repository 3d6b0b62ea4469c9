#include "spe/sampling/near_miss.h"

#include <algorithm>
#include <numeric>

#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/sampling/neighbors.h"

namespace spe {

NearMissSampler::NearMissSampler(std::size_t k) : k_(k) {
  SPE_CHECK_GT(k, 0u);
}

bool NearMissSampler::SelectIndices(const Dataset& data, Rng& rng,
                                    std::vector<std::size_t>* keep) const {
  const std::vector<std::size_t> pos = data.PositiveIndices();
  const std::vector<std::size_t> neg = data.NegativeIndices();
  SPE_CHECK(!pos.empty());
  SPE_CHECK(!neg.empty());

  const NeighborIndex index(data);
  std::vector<double> mean_distance(neg.size());
  ParallelFor(0, neg.size(), [&](std::size_t i) {
    const std::vector<std::size_t> nearest = index.NearestAmong(neg[i], pos, k_);
    double sum = 0.0;
    for (std::size_t j : nearest) sum += index.Distance(neg[i], j);
    mean_distance[i] = sum / static_cast<double>(nearest.size());
  });

  // Majority samples sorted by ascending mean distance to the minority.
  std::vector<std::size_t> order(neg.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return mean_distance[a] < mean_distance[b];
  });

  *keep = pos;
  const std::size_t target = std::min(neg.size(), pos.size());
  for (std::size_t i = 0; i < target; ++i) keep->push_back(neg[order[i]]);
  rng.Shuffle(*keep);
  return true;
}

}  // namespace spe
