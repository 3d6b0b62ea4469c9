#include "spe/imbalance/smote_boost.h"

#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/rng.h"
#include "spe/sampling/smote.h"

namespace spe {

SmoteBoost::SmoteBoost(const SmoteBoostConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

SmoteBoost::SmoteBoost(const SmoteBoostConfig& config,
                       std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
  SPE_CHECK(base_prototype_->SupportsSampleWeights())
      << "SMOTEBoost base learner must support sample weights";
}

void SmoteBoost::Fit(const DatasetView& train) {
  train.CheckAlive();
  const std::vector<std::size_t> pos = train.PositiveIndices();
  SPE_CHECK_GT(pos.size(), 1u);

  const std::size_t n = train.num_rows();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  stages_.clear();
  total_training_rows_ = 0;
  Rng rng(config_.seed);

  // |P| synthetic samples per stage, one seeded at each minority row.
  const std::vector<std::size_t> counts(pos.size(), 1);

  for (std::size_t m = 0; m < config_.n_estimators; ++m) {
    const Dataset augmented =
        WithSyntheticMinority(train, pos, counts, config_.smote_k, rng);
    total_training_rows_ += augmented.num_rows();

    // Stage weights: boosting weights for real rows; synthetic rows get
    // the mean minority weight so they matter as much as a typical
    // minority sample.
    double minority_weight = 0.0;
    for (std::size_t i : pos) minority_weight += weights[i];
    const double synthetic_weight =
        minority_weight / static_cast<double>(pos.size());
    std::vector<double> stage_weights(augmented.num_rows());
    for (std::size_t i = 0; i < n; ++i) stage_weights[i] = weights[i];
    for (std::size_t i = n; i < augmented.num_rows(); ++i) {
      stage_weights[i] = synthetic_weight;
    }
    double sum_w = 0.0;
    for (double w : stage_weights) sum_w += w;
    for (double& w : stage_weights) w /= sum_w;

    std::unique_ptr<Classifier> stage = base_prototype_->Clone();
    stage->Reseed(config_.seed + 104729 * (m + 1));
    stage->FitWeighted(augmented, stage_weights);

    // Boosting update on the original rows only.
    if (!AddStage(std::move(stage), train, weights)) break;
  }
}

std::unique_ptr<Classifier> SmoteBoost::Clone() const {
  return std::make_unique<SmoteBoost>(config_, base_prototype_->Clone());
}

std::string SmoteBoost::Name() const {
  std::ostringstream os;
  os << "SMOTEBoost" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
