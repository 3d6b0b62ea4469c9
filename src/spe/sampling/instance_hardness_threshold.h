#ifndef SPE_SAMPLING_INSTANCE_HARDNESS_THRESHOLD_H_
#define SPE_SAMPLING_INSTANCE_HARDNESS_THRESHOLD_H_

#include <memory>
#include <string>

#include "spe/classifiers/classifier.h"
#include "spe/sampling/sampler.h"

namespace spe {

/// Instance-Hardness-Threshold under-sampling (Smith et al., 2014): fit
/// a probe classifier with cross-validation, score every majority sample
/// by its out-of-fold hardness (1 - predicted own-class probability),
/// and drop the hardest majority samples until the classes balance.
///
/// This is the *static, single-shot* ancestor of SPE's idea — hardness
/// estimated once by one model, hard samples simply discarded — and
/// therefore the natural ablation baseline isolating what SPE's
/// iterative, self-paced, keep-a-skeleton strategy adds. Unlike the
/// k-NN-based cleaners it needs no distance metric, so it works on
/// categorical data.
class InstanceHardnessThresholdSampler final : public Sampler {
 public:
  /// `probe` scores the hardness (default: a depth-5 decision tree);
  /// `folds` controls the out-of-fold estimation.
  explicit InstanceHardnessThresholdSampler(
      std::unique_ptr<Classifier> probe = nullptr, std::size_t folds = 3);

  bool SelectIndices(const Dataset& data, Rng& rng,
                     std::vector<std::size_t>* keep) const override;
  std::string Name() const override { return "IHT"; }

 private:
  std::unique_ptr<Classifier> probe_;
  std::size_t folds_;
};

}  // namespace spe

#endif  // SPE_SAMPLING_INSTANCE_HARDNESS_THRESHOLD_H_
