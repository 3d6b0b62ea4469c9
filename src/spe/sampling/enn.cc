#include "spe/sampling/enn.h"

#include "spe/common/check.h"

namespace spe {

std::vector<std::size_t> EnnKeptIndices(const NeighborIndex& index, std::size_t k,
                                        bool majority_only) {
  const std::vector<std::vector<std::size_t>> neighbors = index.AllNearest(k);
  std::vector<std::size_t> kept;
  kept.reserve(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    const int label = index.LabelOf(i);
    if (majority_only && label == 1) {
      kept.push_back(i);
      continue;
    }
    std::size_t agreeing = 0;
    for (std::size_t j : neighbors[i]) {
      agreeing += static_cast<std::size_t>(index.LabelOf(j) == label);
    }
    // Keep when at least half the neighbourhood agrees with the label.
    if (2 * agreeing >= neighbors[i].size()) kept.push_back(i);
  }
  return kept;
}

EnnSampler::EnnSampler(std::size_t k, bool majority_only)
    : k_(k), majority_only_(majority_only) {
  SPE_CHECK_GT(k, 0u);
}

bool EnnSampler::SelectIndices(const Dataset& data, Rng& /*rng*/,
                               std::vector<std::size_t>* keep) const {
  const NeighborIndex index(data);
  *keep = EnnKeptIndices(index, k_, majority_only_);
  return true;
}

}  // namespace spe
