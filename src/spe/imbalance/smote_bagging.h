#ifndef SPE_IMBALANCE_SMOTE_BAGGING_H_
#define SPE_IMBALANCE_SMOTE_BAGGING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/classifier.h"
#include "spe/classifiers/training_observer.h"

namespace spe {

struct SmoteBaggingConfig {
  std::size_t n_estimators = 10;
  std::size_t smote_k = 5;
  std::uint64_t seed = 0;
};

/// SMOTEBagging (Wang & Yao, 2009): bagging where each bag is a
/// bootstrap of the majority class plus a minority class SMOTE-expanded
/// to match it. The minority resampling rate varies across bags (ramping
/// from 10% bootstrap / 90% synthetic to 100% bootstrap / 0% synthetic
/// before topping up), which is the "each bag's sample quantity varies"
/// of §VI-C.2 and the source of the method's enormous #Sample column in
/// Table VI. Distance-based via SMOTE, so numerical features only.
class SmoteBagging final : public VotingClassifier {
 public:
  /// Default base model: a depth-10 decision tree.
  explicit SmoteBagging(const SmoteBaggingConfig& config = {});
  SmoteBagging(const SmoteBaggingConfig& config,
               std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

  void set_iteration_callback(IterationCallback callback) {
    callback_ = std::move(callback);
  }

  /// Total rows used to fit all members (Table VI "#Sample").
  std::size_t TotalTrainingRows() const { return total_training_rows_; }

 private:
  SmoteBaggingConfig config_;
  std::unique_ptr<Classifier> base_prototype_;
  IterationCallback callback_;
  std::size_t total_training_rows_ = 0;
};

}  // namespace spe

#endif  // SPE_IMBALANCE_SMOTE_BAGGING_H_
