#include "spe/sampling/one_side_selection.h"

#include <algorithm>

#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/sampling/neighbors.h"
#include "spe/sampling/tomek_links.h"

namespace spe {

OneSideSelectionSampler::OneSideSelectionSampler(std::size_t seeds)
    : seeds_(seeds) {
  SPE_CHECK_GT(seeds, 0u);
}

bool OneSideSelectionSampler::SelectIndices(const Dataset& data, Rng& rng,
                                            std::vector<std::size_t>* keep) const {
  const std::vector<std::size_t> pos = data.PositiveIndices();
  const std::vector<std::size_t> neg = data.NegativeIndices();
  SPE_CHECK(!pos.empty());
  SPE_CHECK(!neg.empty());

  const NeighborIndex index(data);

  // Reference set C: all minority plus a few random majority seeds.
  std::vector<std::size_t> reference = pos;
  std::vector<bool> in_reference(data.num_rows(), false);
  for (std::size_t i : pos) in_reference[i] = true;
  const std::size_t num_seeds = std::min(seeds_, neg.size());
  for (std::size_t i : rng.SampleWithoutReplacement(neg.size(), num_seeds)) {
    reference.push_back(neg[i]);
    in_reference[neg[i]] = true;
  }

  // Every majority sample the 1-NN rule over C misclassifies (nearest
  // reference point is minority) is informative: keep it.
  std::vector<char> misclassified(neg.size(), 0);
  ParallelFor(0, neg.size(), [&](std::size_t i) {
    if (in_reference[neg[i]]) return;
    const std::vector<std::size_t> nearest =
        index.NearestAmong(neg[i], reference, 1);
    misclassified[i] =
        static_cast<char>(!nearest.empty() && index.LabelOf(nearest[0]) == 1);
  });
  std::vector<std::size_t> kept = reference;
  for (std::size_t i = 0; i < neg.size(); ++i) {
    if (misclassified[i]) kept.push_back(neg[i]);
  }
  std::sort(kept.begin(), kept.end());

  // Final cleaning: drop Tomek-link majority members from the kept set,
  // indexing a view over it rather than materializing a candidate copy.
  const DatasetView candidate(data, kept);
  const NeighborIndex kept_index(candidate);
  const std::vector<std::size_t> drop = TomekLinkMajorityMembers(kept_index);
  std::vector<char> dropped(kept.size(), 0);
  for (std::size_t i : drop) dropped[i] = 1;
  keep->clear();
  keep->reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (!dropped[i]) keep->push_back(kept[i]);
  }
  return true;
}

}  // namespace spe
