#ifndef SPE_SAMPLING_TOMEK_LINKS_H_
#define SPE_SAMPLING_TOMEK_LINKS_H_

#include <string>
#include <vector>

#include "spe/sampling/neighbors.h"
#include "spe/sampling/sampler.h"

namespace spe {

/// Finds all Tomek links: pairs of opposite-class samples that are each
/// other's single nearest neighbour. Returns the majority-class member
/// of every link (ascending, unique). Exposed for reuse by OSS and
/// SMOTETomek.
std::vector<std::size_t> TomekLinkMajorityMembers(const NeighborIndex& index);

/// TomekLink under-sampler (Tomek, 1976): removes the majority member of
/// every Tomek link, peeling borderline/noisy majority samples off the
/// class boundary.
class TomekLinksSampler final : public Sampler {
 public:
  TomekLinksSampler() = default;

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  bool RequiresNumericalFeatures() const override { return true; }
  std::string Name() const override { return "TomekLink"; }
};

}  // namespace spe

#endif  // SPE_SAMPLING_TOMEK_LINKS_H_
