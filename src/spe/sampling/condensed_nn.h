#ifndef SPE_SAMPLING_CONDENSED_NN_H_
#define SPE_SAMPLING_CONDENSED_NN_H_

#include <string>

#include "spe/sampling/sampler.h"

namespace spe {

/// CNN (Condensed Nearest Neighbour, Hart 1968 — the method Tomek's
/// "two modifications of CNN" [paper ref 12] builds on): grows a
/// consistent subset. Starting from all minority samples plus one random
/// majority sample, every remaining majority sample is presented in
/// random order and added only if the current subset's 1-NN rule
/// misclassifies it. Keeps boundary samples, discards interior ones.
class CondensedNnSampler final : public Sampler {
 public:
  CondensedNnSampler() = default;

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "CNN"; }
};

}  // namespace spe

#endif  // SPE_SAMPLING_CONDENSED_NN_H_
