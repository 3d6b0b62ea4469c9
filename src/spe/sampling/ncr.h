#ifndef SPE_SAMPLING_NCR_H_
#define SPE_SAMPLING_NCR_H_

#include <string>

#include "spe/sampling/sampler.h"

namespace spe {

/// NCR (Neighbourhood Cleaning Rule, Laurikkala 2001) — the method the
/// paper's tables call "Clean". Two cleaning steps over a k-NN graph:
///  1. Wilson editing of the majority class (drop majority samples whose
///     neighbourhood out-votes them).
///  2. For every minority sample misclassified by its k neighbours, drop
///     the majority samples among those neighbours.
/// Note the output is *not* balanced — only cleaned — which is why the
/// paper observes "Clean + MLP" collapsing (§VI-B.2).
class NcrSampler final : public Sampler {
 public:
  explicit NcrSampler(std::size_t k = 3);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "Clean"; }

 private:
  std::size_t k_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_NCR_H_
