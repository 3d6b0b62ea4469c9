#include "spe/sampling/ncr.h"

#include <vector>

#include "spe/common/check.h"
#include "spe/sampling/neighbors.h"

namespace spe {

NcrSampler::NcrSampler(std::size_t k) : k_(k) { SPE_CHECK_GT(k, 0u); }

bool NcrSampler::SelectIndices(const Dataset& data, Rng& /*rng*/,
                               std::vector<std::size_t>* keep) const {
  const NeighborIndex index(data);
  const std::vector<std::vector<std::size_t>> neighbors = index.AllNearest(k_);

  std::vector<char> drop(data.num_rows(), 0);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    std::size_t minority_votes = 0;
    for (std::size_t j : neighbors[i]) {
      minority_votes += static_cast<std::size_t>(index.LabelOf(j) == 1);
    }
    const bool votes_minority = 2 * minority_votes > neighbors[i].size();
    if (index.LabelOf(i) == 0) {
      // Step 1: majority sample out-voted by minority neighbours.
      if (votes_minority) drop[i] = 1;
    } else if (!votes_minority) {
      // Step 2: misclassified minority sample — remove the offending
      // majority neighbours instead of the minority sample itself.
      for (std::size_t j : neighbors[i]) {
        if (index.LabelOf(j) == 0) drop[j] = 1;
      }
    }
  }

  keep->clear();
  keep->reserve(data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    if (!drop[i]) keep->push_back(i);
  }
  return true;
}

}  // namespace spe
