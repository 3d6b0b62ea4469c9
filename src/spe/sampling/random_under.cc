#include "spe/sampling/random_under.h"

#include <algorithm>

#include "spe/common/check.h"

namespace spe {

RandomUnderSampler::RandomUnderSampler(double ratio) : ratio_(ratio) {
  SPE_CHECK_GT(ratio, 0.0);
}

bool RandomUnderSampler::SelectIndices(const Dataset& data, Rng& rng,
                                       std::vector<std::size_t>* keep) const {
  const std::vector<std::size_t> pos = data.PositiveIndices();
  const std::vector<std::size_t> neg = data.NegativeIndices();
  SPE_CHECK(!pos.empty());

  const auto target = std::min(
      neg.size(), static_cast<std::size_t>(
                      ratio_ * static_cast<double>(pos.size()) + 0.5));
  *keep = pos;
  for (std::size_t i : rng.SampleWithoutReplacement(neg.size(), target)) {
    keep->push_back(neg[i]);
  }
  rng.Shuffle(*keep);
  return true;
}

}  // namespace spe
