#include "spe/core/hardness.h"

#include <algorithm>
#include <cmath>

#include "spe/common/check.h"

namespace spe {

HardnessFn MakeHardness(HardnessKind kind) {
  switch (kind) {
    case HardnessKind::kAbsoluteError:
      return [](double prob, int label) {
        return std::abs(prob - static_cast<double>(label));
      };
    case HardnessKind::kSquaredError:
      return [](double prob, int label) {
        const double d = prob - static_cast<double>(label);
        return d * d;
      };
    case HardnessKind::kCrossEntropy:
      return [](double prob, int label) {
        constexpr double kEps = 1e-12;
        const double p = std::clamp(prob, kEps, 1.0 - kEps);
        return label == 1 ? -std::log(p) : -std::log(1.0 - p);
      };
  }
  SPE_CHECK(false) << "unhandled hardness kind";
  return {};
}

std::string HardnessName(HardnessKind kind) {
  switch (kind) {
    case HardnessKind::kAbsoluteError:
      return "AE";
    case HardnessKind::kSquaredError:
      return "SE";
    case HardnessKind::kCrossEntropy:
      return "CE";
  }
  return "?";
}

bool HardnessKindFromName(const std::string& name, HardnessKind* kind) {
  if (name == "AE") {
    *kind = HardnessKind::kAbsoluteError;
  } else if (name == "SE") {
    *kind = HardnessKind::kSquaredError;
  } else if (name == "CE") {
    *kind = HardnessKind::kCrossEntropy;
  } else {
    return false;
  }
  return true;
}

std::vector<double> ComputeHardness(const HardnessFn& fn,
                                    std::span<const double> probs,
                                    std::span<const int> labels) {
  SPE_CHECK_EQ(probs.size(), labels.size());
  std::vector<double> out(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) out[i] = fn(probs[i], labels[i]);
  return out;
}

HardnessBins ComputeHardnessBins(std::span<const double> hardness,
                                 std::size_t num_bins) {
  SPE_CHECK_GT(num_bins, 0u);
  SPE_CHECK(!hardness.empty());

  double min_h = hardness[0];
  double max_h = hardness[0];
  for (std::size_t i = 0; i < hardness.size(); ++i) {
    const double h = hardness[i];
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

  for (const double h : hardness) {
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

}  // namespace spe
