#ifndef SPE_SAMPLING_ONE_SIDE_SELECTION_H_
#define SPE_SAMPLING_ONE_SIDE_SELECTION_H_

#include <string>

#include "spe/sampling/sampler.h"

namespace spe {

/// OSS (One Side Selection, Kubat & Matwin 1997): keeps all minority
/// samples plus `seeds` random majority samples, adds every majority
/// sample this 1-NN rule misclassifies (the informative ones near the
/// boundary), then removes Tomek-link majority members from the result.
class OneSideSelectionSampler final : public Sampler {
 public:
  explicit OneSideSelectionSampler(std::size_t seeds = 1);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "OSS"; }

 private:
  std::size_t seeds_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_ONE_SIDE_SELECTION_H_
