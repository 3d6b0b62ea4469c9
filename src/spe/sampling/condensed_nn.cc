#include "spe/sampling/condensed_nn.h"

#include <algorithm>
#include <vector>

#include "spe/common/check.h"
#include "spe/sampling/neighbors.h"

namespace spe {

bool CondensedNnSampler::SelectIndices(const Dataset& data, Rng& rng,
                                       std::vector<std::size_t>* keep) const {
  const std::vector<std::size_t> pos = data.PositiveIndices();
  std::vector<std::size_t> neg = data.NegativeIndices();
  SPE_CHECK(!pos.empty());
  SPE_CHECK(!neg.empty());

  const NeighborIndex index(data);

  // Store: all minority + one random majority seed.
  std::vector<std::size_t> store = pos;
  rng.Shuffle(neg);
  store.push_back(neg[0]);

  // Single sequential pass (Hart's inner loop iterated to a fixed point
  // is also classic; one pass is the imbalanced-learning convention and
  // keeps the cost at O(n * |store|)).
  for (std::size_t i = 1; i < neg.size(); ++i) {
    const std::vector<std::size_t> nearest =
        index.NearestAmong(neg[i], store, 1);
    if (!nearest.empty() && index.LabelOf(nearest[0]) != 0) {
      store.push_back(neg[i]);  // misclassified: keep it
    }
  }
  std::sort(store.begin(), store.end());
  *keep = std::move(store);
  return true;
}

}  // namespace spe
