#ifndef SPE_SAMPLING_ALL_KNN_H_
#define SPE_SAMPLING_ALL_KNN_H_

#include <string>

#include "spe/sampling/sampler.h"

namespace spe {

/// AllKNN (Tomek, 1976): repeated Wilson editing with the neighbourhood
/// size growing from 1 to `max_k`, dropping majority samples that any
/// round misclassifies. Each round re-indexes the surviving set, which
/// is what makes the method so expensive on large data (Table V's
/// slowest row).
class AllKnnSampler final : public Sampler {
 public:
  explicit AllKnnSampler(std::size_t max_k = 3);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "AllKNN"; }

 private:
  std::size_t max_k_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_ALL_KNN_H_
