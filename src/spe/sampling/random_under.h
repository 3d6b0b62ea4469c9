#ifndef SPE_SAMPLING_RANDOM_UNDER_H_
#define SPE_SAMPLING_RANDOM_UNDER_H_

#include <string>

#include "spe/sampling/sampler.h"

namespace spe {

/// RandUnder: keeps every minority example and a uniform random majority
/// subset of size `ratio * |P|` (ratio 1 balances the classes exactly,
/// as everywhere in the paper).
class RandomUnderSampler final : public Sampler {
 public:
  explicit RandomUnderSampler(double ratio = 1.0);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  std::string Name() const override { return "RandUnder"; }

 private:
  double ratio_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_RANDOM_UNDER_H_
