#ifndef SPE_CLASSIFIERS_BAGGING_H_
#define SPE_CLASSIFIERS_BAGGING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/classifier.h"

namespace spe {

struct BaggingConfig {
  std::size_t n_estimators = 10;
  /// Bootstrap sample size as a fraction of the training set.
  double max_samples = 1.0;
  std::uint64_t seed = 0;
};

/// Bootstrap aggregating (Breiman, 1996): each member trains on a
/// bootstrap resample and predictions are averaged probabilities.
class Bagging final : public VotingClassifier {
 public:
  explicit Bagging(const BaggingConfig& config = {});
  /// Bags clones of `base_prototype` (default: depth-10 decision tree).
  Bagging(const BaggingConfig& config, std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

 private:
  BaggingConfig config_;
  std::unique_ptr<Classifier> base_prototype_;  // null => default tree
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_BAGGING_H_
