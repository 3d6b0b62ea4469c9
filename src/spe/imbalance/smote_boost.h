#ifndef SPE_IMBALANCE_SMOTE_BOOST_H_
#define SPE_IMBALANCE_SMOTE_BOOST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/adaboost.h"

namespace spe {

struct SmoteBoostConfig {
  std::size_t n_estimators = 10;
  double learning_rate = 1.0;
  std::size_t smote_k = 5;
  std::uint64_t seed = 0;
};

/// SMOTEBoost (Chawla et al., 2003): AdaBoost where every iteration
/// first augments the training set with |P| fresh SMOTE-synthesized
/// minority samples (the paper's §VI-C.2 description). Synthetic rows
/// carry the mean minority weight during the stage fit and are discarded
/// before the boosting weight update, which runs on the original rows
/// (BoostedClassifier::AddStage). Distance-based, so it inherits SMOTE's
/// restriction to numerical data.
class SmoteBoost final : public BoostedClassifier {
 public:
  /// Default base model: a depth-10 decision tree.
  explicit SmoteBoost(const SmoteBoostConfig& config = {});
  SmoteBoost(const SmoteBoostConfig& config,
             std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;
  double learning_rate() const override { return config_.learning_rate; }

  /// Total rows used to fit all stages (the Table VI "#Sample" column).
  std::size_t TotalTrainingRows() const { return total_training_rows_; }

 private:
  SmoteBoostConfig config_;
  std::unique_ptr<Classifier> base_prototype_;
  std::size_t total_training_rows_ = 0;
};

}  // namespace spe

#endif  // SPE_IMBALANCE_SMOTE_BOOST_H_
