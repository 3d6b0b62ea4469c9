#include "spe/sampling/tomek_links.h"

#include <algorithm>

namespace spe {

std::vector<std::size_t> TomekLinkMajorityMembers(const NeighborIndex& index) {
  const std::vector<std::vector<std::size_t>> nn = index.AllNearest(1);
  std::vector<std::size_t> majority_members;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (nn[i].empty()) continue;
    const std::size_t j = nn[i][0];
    // A link requires opposite classes and mutual nearest neighbours;
    // checking i < j would miss nothing but we only record the majority
    // member anyway, so scan all and deduplicate at the end.
    if (index.LabelOf(i) == index.LabelOf(j)) continue;
    if (nn[j].empty() || nn[j][0] != i) continue;
    majority_members.push_back(index.LabelOf(i) == 0 ? i : j);
  }
  std::sort(majority_members.begin(), majority_members.end());
  majority_members.erase(
      std::unique(majority_members.begin(), majority_members.end()),
      majority_members.end());
  return majority_members;
}

bool TomekLinksSampler::SelectIndices(const Dataset& data, Rng& /*rng*/,
                                      std::vector<std::size_t>* keep) const {
  const NeighborIndex index(data);
  const std::vector<std::size_t> drop = TomekLinkMajorityMembers(index);
  keep->clear();
  keep->reserve(data.num_rows() - drop.size());
  std::size_t next_drop = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    if (next_drop < drop.size() && drop[next_drop] == i) {
      ++next_drop;
      continue;
    }
    keep->push_back(i);
  }
  return true;
}

}  // namespace spe
