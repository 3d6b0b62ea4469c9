#ifndef SPE_IMBALANCE_RUS_BOOST_H_
#define SPE_IMBALANCE_RUS_BOOST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/adaboost.h"

namespace spe {

struct RusBoostConfig {
  std::size_t n_estimators = 10;
  double learning_rate = 1.0;
  std::uint64_t seed = 0;
};

/// RUSBoost (Seiffert et al., 2010): AdaBoost with random under-sampling
/// inside every boosting iteration. Each stage trains the (weight-
/// supporting) base on a balanced subset using the boosting weights of
/// the surviving rows, then performs the usual real-boosting weight
/// update on the full training set (BoostedClassifier::AddStage).
class RusBoost final : public BoostedClassifier {
 public:
  /// Default base model: a depth-10 decision tree.
  explicit RusBoost(const RusBoostConfig& config = {});
  RusBoost(const RusBoostConfig& config, std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;
  double learning_rate() const override { return config_.learning_rate; }

 private:
  RusBoostConfig config_;
  std::unique_ptr<Classifier> base_prototype_;
};

}  // namespace spe

#endif  // SPE_IMBALANCE_RUS_BOOST_H_
