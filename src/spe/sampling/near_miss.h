#ifndef SPE_SAMPLING_NEAR_MISS_H_
#define SPE_SAMPLING_NEAR_MISS_H_

#include <string>

#include "spe/sampling/sampler.h"

namespace spe {

/// NearMiss-1 (Mani & Zhang, 2003): keeps the |P| majority samples whose
/// mean distance to their `k` nearest *minority* samples is smallest —
/// i.e. the majority points pressed right up against the minority class.
class NearMissSampler final : public Sampler {
 public:
  explicit NearMissSampler(std::size_t k = 3);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "NearMiss"; }

 private:
  std::size_t k_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_NEAR_MISS_H_
