#include "spe/core/hardness.h"

#include "spe/common/check.h"

namespace spe {

HardnessFn MakeHardness(HardnessKind kind) {
  switch (kind) {
    case HardnessKind::kAbsoluteError:
      return AbsoluteErrorHardness;
    case HardnessKind::kSquaredError:
      return SquaredErrorHardness;
    case HardnessKind::kCrossEntropy:
      return CrossEntropyHardness;
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
  return ComputeHardnessBinsAt(
      hardness.size(), [hardness](std::size_t i) { return hardness[i]; },
      num_bins);
}

HardnessBins ComputeHardnessBins(const MajorityHardness& hardness,
                                 std::size_t num_bins) {
  return hardness.Visit([&](auto at) {
    return ComputeHardnessBinsAt(hardness.size(), at, num_bins);
  });
}

}  // namespace spe
