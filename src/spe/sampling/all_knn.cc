#include "spe/sampling/all_knn.h"

#include <numeric>
#include <utility>

#include "spe/common/check.h"
#include "spe/sampling/enn.h"
#include "spe/sampling/neighbors.h"

namespace spe {

AllKnnSampler::AllKnnSampler(std::size_t max_k) : max_k_(max_k) {
  SPE_CHECK_GT(max_k, 0u);
}

bool AllKnnSampler::SelectIndices(const Dataset& data, Rng& /*rng*/,
                                  std::vector<std::size_t>* keep) const {
  // Survivors tracked as absolute row indices; each editing round builds
  // its neighbour index over a view of them, so no intermediate copy of
  // the surviving set is ever materialized.
  std::vector<std::size_t> survivors(data.num_rows());
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});
  for (std::size_t k = 1; k <= max_k_; ++k) {
    const DatasetView view(data, survivors);
    const NeighborIndex index(view);
    const std::vector<std::size_t> kept =
        EnnKeptIndices(index, k, /*majority_only=*/true);
    if (kept.size() == survivors.size()) continue;  // nothing removed
    std::vector<std::size_t> next;
    next.reserve(kept.size());
    for (std::size_t i : kept) next.push_back(survivors[i]);
    survivors = std::move(next);
    // Stop if the majority class would vanish entirely.
    if (DatasetView(data, survivors).CountNegatives() == 0) break;
  }
  *keep = std::move(survivors);
  return true;
}

}  // namespace spe
