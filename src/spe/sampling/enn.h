#ifndef SPE_SAMPLING_ENN_H_
#define SPE_SAMPLING_ENN_H_

#include <string>
#include <vector>

#include "spe/sampling/neighbors.h"
#include "spe/sampling/sampler.h"

namespace spe {

/// One Wilson editing pass: rows whose class disagrees with the majority
/// vote of their `k` nearest neighbours are dropped. With
/// `majority_only`, only majority-class (label 0) rows can be dropped —
/// the imbalanced-learning convention, since deleting rare minority
/// samples is usually a bad trade. Returns the kept indices, ascending.
/// Exposed for reuse by AllKNN, NCR and SMOTEENN.
std::vector<std::size_t> EnnKeptIndices(const NeighborIndex& index, std::size_t k,
                                        bool majority_only);

/// ENN (Edited Nearest Neighbours, Wilson 1972) under-sampler.
class EnnSampler final : public Sampler {
 public:
  explicit EnnSampler(std::size_t k = 3, bool majority_only = true);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "ENN"; }

 private:
  std::size_t k_;
  bool majority_only_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_ENN_H_
