#ifndef SPE_SAMPLING_SAMPLER_H_
#define SPE_SAMPLING_SAMPLER_H_

#include <string>
#include <vector>

#include "spe/common/rng.h"
#include "spe/data/dataset.h"

namespace spe {

/// A re-sampling method: consumes an imbalanced training set and returns
/// the set a downstream classifier should be fitted on. This is the
/// "data-level method" abstraction of §III; each concrete sampler
/// reproduces one row of the paper's Table V.
class Sampler {
 public:
  virtual ~Sampler();

  /// Produces the re-sampled training set. Deterministic samplers ignore
  /// `rng`. Distance-based samplers abort on categorical features — the
  /// exact inapplicability the paper marks with "- -" in Table IV; use
  /// RequiresNumericalFeatures() to pre-check. The default is every pure
  /// under-sampler's: `data.Subset()` of the rows SelectIndices keeps.
  /// Samplers that synthesize rows override it (the default aborts,
  /// naming the sampler, when SelectIndices returns false).
  virtual Dataset Resample(const Dataset& data, Rng& rng) const;

  /// Zero-copy fast path for pure under-samplers: when the resampled set
  /// is exactly a row subset of `data`, fills `keep` with the selected
  /// row indices — in the same order Resample would emit them, consuming
  /// the same RNG stream — and returns true. Callers then fit through
  /// `DatasetView(data, keep)` instead of materializing a copy. Samplers
  /// that synthesize rows (SMOTE family, cluster centroids) keep the
  /// default and return false, in which case `keep` is untouched and the
  /// caller falls back to Resample.
  virtual bool SelectIndices(const Dataset& data, Rng& rng,
                             std::vector<std::size_t>* keep) const {
    (void)data;
    (void)rng;
    (void)keep;
    return false;
  }

  /// True for k-NN-based methods that need a meaningful numeric distance.
  virtual bool RequiresNumericalFeatures() const { return false; }

  /// Name as used in the paper's tables, e.g. "SMOTE", "Clean".
  virtual std::string Name() const = 0;
};

}  // namespace spe

#endif  // SPE_SAMPLING_SAMPLER_H_
