#ifndef SPE_CORE_HARDNESS_H_
#define SPE_CORE_HARDNESS_H_

#include <algorithm>
#include <cmath>
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

/// The built-in hardness functions. MakeHardness wraps these, and
/// MajorityHardness inlines them, so both forms give the same bits.
inline double AbsoluteErrorHardness(double prob, int label) {
  return std::abs(prob - static_cast<double>(label));
}
inline double SquaredErrorHardness(double prob, int label) {
  const double d = prob - static_cast<double>(label);
  return d * d;
}
inline double CrossEntropyHardness(double prob, int label) {
  constexpr double kEps = 1e-12;
  const double p = std::clamp(prob, kEps, 1.0 - kEps);
  return label == 1 ? -std::log(p) : -std::log(1.0 - p);
}

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

/// The hardness of every majority sample (label 0) under a running
/// ensemble, evaluated where it is read instead of stored: sample m's
/// hardness is fn(prob_sum[m] / prob_count, 0), the value an |N|-sized
/// hardness vector would hold. The built-in kinds are inlined into each
/// pass; a custom closure is called through its HardnessFn.
struct MajorityHardness {
  std::span<const double> prob_sum;
  std::size_t prob_count = 1;
  HardnessKind kind = HardnessKind::kAbsoluteError;
  const HardnessFn* custom = nullptr;  ///< replaces `kind` when non-null

  std::size_t size() const { return prob_sum.size(); }

  /// Returns visit(at), where at(m) is sample m's hardness.
  template <typename Visitor>
  decltype(auto) Visit(Visitor&& visit) const {
    const std::span<const double> sum = prob_sum;
    const double count = static_cast<double>(prob_count);
    if (custom != nullptr) {
      const HardnessFn& fn = *custom;
      return visit([sum, count, &fn](std::size_t m) {
        return fn(sum[m] / count, 0);
      });
    }
    if (kind == HardnessKind::kSquaredError) {
      return visit([sum, count](std::size_t m) {
        return SquaredErrorHardness(sum[m] / count, 0);
      });
    }
    if (kind == HardnessKind::kCrossEntropy) {
      return visit([sum, count](std::size_t m) {
        return CrossEntropyHardness(sum[m] / count, 0);
      });
    }
    return visit([sum, count](std::size_t m) {
      return AbsoluteErrorHardness(sum[m] / count, 0);
    });
  }
};

HardnessBins ComputeHardnessBins(const MajorityHardness& hardness,
                                 std::size_t num_bins);

/// ComputeHardnessBins over `n` samples whose hardness is at(i), read
/// twice per sample: the range, then the bins. Both overloads above are
/// this function; the self-paced sampler calls it with its own at.
template <typename HardnessAt>
HardnessBins ComputeHardnessBinsAt(std::size_t n, HardnessAt at,
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

template <typename HardnessAt>
HardnessBins ComputeHardnessBinsAt(std::size_t n, HardnessAt at,
                                   std::size_t num_bins) {
  SPE_CHECK_GT(num_bins, 0u);
  SPE_CHECK_GT(n, 0u);

  double min_h = at(0);
  double max_h = min_h;
  for (std::size_t i = 0; i < n; ++i) {
    const double h = at(i);
    // NaN fails h >= 0 too, but "must be non-negative" sends whoever
    // debugs it hunting for a sign bug; name the real failure and where.
    SPE_CHECK(!std::isnan(h))
        << "hardness is NaN for sample " << i
        << " (a base learner emitted a NaN probability?)";
    SPE_CHECK_GE(h, 0.0) << "hardness must be non-negative, got " << h
                         << " for sample " << i;
    min_h = std::min(min_h, h);
    max_h = std::max(max_h, h);
  }
  // Bins span the *observed* hardness range [min, max] (the authors'
  // implementation does the same). A fixed [0, 1] grid would waste most
  // bins whenever an ensemble's hardness concentrates near 0 — the
  // common case with tree bases — collapsing the paper's k = 20
  // resolution to a handful of effective bins. This also realizes the
  // "w.l.o.g. H in [0, 1]" normalization for unbounded functions (CE).
  HardnessBins bins;
  bins.population.assign(num_bins, 0);
  bins.contribution.assign(num_bins, 0.0);
  bins.mean_hardness.assign(num_bins, 0.0);
  bins.min = min_h;
  bins.max = max_h;

  for (std::size_t i = 0; i < n; ++i) {
    const double h = at(i);
    const std::size_t bin = HardnessBinIndex(h, min_h, max_h, num_bins);
    ++bins.population[bin];
    bins.contribution[bin] += h;
  }
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (bins.population[b] > 0) {
      bins.mean_hardness[b] =
          bins.contribution[b] / static_cast<double>(bins.population[b]);
    }
  }
  return bins;
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
