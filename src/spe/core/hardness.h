#ifndef SPE_CORE_HARDNESS_H_
#define SPE_CORE_HARDNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "spe/common/check.h"

namespace spe {

/// The "classification hardness" functions of §IV: any decomposable error
/// of a probabilistic prediction. H(x, y, F) is evaluated as
/// fn(F(x), y) where F(x) is the predicted positive probability.
enum class HardnessKind {
  kAbsoluteError,  // |F(x) - y|         — the paper's default
  kSquaredError,   // (F(x) - y)^2       — Brier score
  kCrossEntropy,   // -y log F - (1-y) log(1-F), unbounded above
};

/// A hardness function: (predicted probability, label) -> hardness >= 0.
using HardnessFn = std::function<double(double prob, int label)>;

/// Builds the hardness function for `kind`.
HardnessFn MakeHardness(HardnessKind kind);

/// Short name used in Fig. 8's legend: "AE", "SE", "CE".
std::string HardnessName(HardnessKind kind);

/// Inverse of HardnessName. Returns false (leaving *kind untouched) for
/// an unknown name — artifact headers are data, not trusted input.
bool HardnessKindFromName(const std::string& name, HardnessKind* kind);

/// Evaluates hardness for every (probability, label) pair.
std::vector<double> ComputeHardness(const HardnessFn& fn,
                                    std::span<const double> probs,
                                    std::span<const int> labels);

/// Population and contribution per hardness bin — the statistics shown in
/// Fig. 3. The k bins split the *observed* hardness range [min, max]
/// evenly (matching the authors' released implementation and realizing
/// the paper's "w.l.o.g. H in [0,1]" normalization); the last bin is
/// closed above. Constant hardness degenerates to a single occupied bin.
/// Sample i's bin is HardnessBinIndex(hardness[i], min, max, k); nothing
/// per sample is stored, so the result is O(k) whatever the input size.
struct HardnessBins {
  std::vector<std::size_t> population;  ///< samples per bin
  std::vector<double> contribution;     ///< total hardness per bin
  std::vector<double> mean_hardness;    ///< average hardness per bin (0 if empty)
  double min = 0.0;                     ///< observed hardness range
  double max = 0.0;
};

HardnessBins ComputeHardnessBins(std::span<const double> hardness,
                                 std::size_t num_bins);

/// A frozen hardness-bin histogram: the training-time distribution of
/// hardness over the majority set under the *final* ensemble, pinned at
/// save time so a serving process can compare live traffic against it
/// (spe/lifecycle/drift.h). `kind` is the HardnessName short code the
/// live side rebuilds the hardness function from; min/max are the
/// observed training range that fixes the bin edges (the same
/// even-split-of-[min,max] geometry as ComputeHardnessBins, last bin
/// closed above, out-of-range values clamped into the edge bins).
struct HardnessHistogram {
  std::string kind;  // "AE" | "SE" | "CE"
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> counts;

  bool empty() const { return counts.empty(); }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : counts) t += c;
    return t;
  }
};

/// Bin index of hardness value `h` in `num_bins` even bins over
/// [min, max], last bin closed above. ComputeHardnessBins bins every
/// sample through this function; under a HardnessHistogram's geometry,
/// live values outside the training range land in the edge bins instead
/// of aborting.
inline std::size_t HardnessBinIndex(double h, double min, double max,
                                    std::size_t num_bins) {
  SPE_CHECK_GT(num_bins, 0u);
  const double range = max - min;
  if (!(range > 0.0)) return 0;  // degenerate training range: one bin
  const double normalized = (h - min) / range;
  if (normalized <= 0.0) return 0;  // below the training range
  const std::size_t bin =
      static_cast<std::size_t>(normalized * static_cast<double>(num_bins));
  return bin >= num_bins ? num_bins - 1 : bin;  // h >= max -> top bin
}

/// Capability interface: models that carry a training-time hardness
/// histogram (SelfPacedEnsemble after Fit; VotingEnsembleModel restored
/// from a v3 bundle). Discovered via dynamic_cast at bundle-save time.
class HardnessProfiled {
 public:
  virtual ~HardnessProfiled() = default;

  /// The training-time histogram, or nullptr when none was recorded
  /// (unfitted model, custom hardness function, v2 artifact).
  virtual const HardnessHistogram* training_hardness() const = 0;
};

}  // namespace spe

#endif  // SPE_CORE_HARDNESS_H_
