#ifndef SPE_IMBALANCE_UNDER_BAGGING_H_
#define SPE_IMBALANCE_UNDER_BAGGING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/classifier.h"
#include "spe/classifiers/training_observer.h"

namespace spe {

struct UnderBaggingConfig {
  std::size_t n_estimators = 10;
  std::uint64_t seed = 0;
};

/// UnderBagging (Barandela et al., 2003): every member trains on an
/// independently drawn balanced subset (all minority + |P| random
/// majority) and the ensemble averages probabilities. EasyEnsemble is
/// exactly this with an AdaBoost base (§VI-C.2 of the paper).
class UnderBagging : public VotingClassifier {
 public:
  /// Default base model: a depth-10 decision tree.
  explicit UnderBagging(const UnderBaggingConfig& config = {});
  UnderBagging(const UnderBaggingConfig& config,
               std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

  void set_iteration_callback(IterationCallback callback) {
    callback_ = std::move(callback);
  }

 protected:
  /// Display name prefix; EasyEnsemble overrides it to "Easy".
  virtual std::string Prefix() const { return "UnderBagging"; }

  const UnderBaggingConfig& config() const { return config_; }
  const Classifier& base_prototype() const { return *base_prototype_; }

 private:
  UnderBaggingConfig config_;
  std::unique_ptr<Classifier> base_prototype_;
  IterationCallback callback_;
};

}  // namespace spe

#endif  // SPE_IMBALANCE_UNDER_BAGGING_H_
