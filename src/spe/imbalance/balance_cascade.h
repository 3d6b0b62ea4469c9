#ifndef SPE_IMBALANCE_BALANCE_CASCADE_H_
#define SPE_IMBALANCE_BALANCE_CASCADE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/classifier.h"
#include "spe/classifiers/training_observer.h"

namespace spe {

struct BalanceCascadeConfig {
  std::size_t n_estimators = 10;
  std::uint64_t seed = 0;
};

/// BalanceCascade (Liu, Wu & Zhou, 2009): like UnderBagging, but after
/// each iteration the majority pool is shrunk by discarding the samples
/// the current ensemble already classifies most confidently, so later
/// members see progressively harder data. The pool contracts by the
/// factor (|P|/|N|)^(1/(n-1)) per iteration, reaching |P| at the last.
///
/// This is the paper's closest prior art: §III and §VI-A.3 show how
/// keeping *only* the hard remainder over-weights outliers in late
/// iterations — the failure mode SPE's trivial-sample "skeleton" avoids.
class BalanceCascade final : public VotingClassifier {
 public:
  /// Default base model: a depth-10 decision tree.
  explicit BalanceCascade(const BalanceCascadeConfig& config = {});
  BalanceCascade(const BalanceCascadeConfig& config,
                 std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

  void set_iteration_callback(IterationCallback callback) {
    callback_ = std::move(callback);
  }

 private:
  BalanceCascadeConfig config_;
  std::unique_ptr<Classifier> base_prototype_;
  IterationCallback callback_;
};

}  // namespace spe

#endif  // SPE_IMBALANCE_BALANCE_CASCADE_H_
