#include "spe/imbalance/rus_boost.h"

#include <algorithm>
#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/rng.h"

namespace spe {

RusBoost::RusBoost(const RusBoostConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

RusBoost::RusBoost(const RusBoostConfig& config,
                   std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
  SPE_CHECK(base_prototype_->SupportsSampleWeights())
      << "RUSBoost base learner must support sample weights";
}

void RusBoost::Fit(const DatasetView& train) {
  train.CheckAlive();
  const std::vector<std::size_t> pos = train.PositiveIndices();
  const std::vector<std::size_t> neg = train.NegativeIndices();
  SPE_CHECK(!pos.empty());
  SPE_CHECK(!neg.empty());

  const std::size_t n = train.num_rows();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  stages_.clear();
  Rng rng(config_.seed);
  // Row-major views have no parent matrix to index into; materialize
  // once and run every per-stage selection against the copy.
  Dataset owned;
  DatasetView base = train;
  if (train.row_major()) {
    owned = train.Materialize();
    base = DatasetView(owned);
  }
  std::vector<std::size_t> subset_abs;

  for (std::size_t m = 0; m < config_.n_estimators; ++m) {
    // Random under-sampling: all minority + |P| uniform majority.
    const std::size_t take = std::min(pos.size(), neg.size());
    std::vector<std::size_t> subset_rows = pos;
    for (std::size_t i : rng.SampleWithoutReplacement(neg.size(), take)) {
      subset_rows.push_back(neg[i]);
    }
    std::vector<double> subset_weights(subset_rows.size());
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < subset_rows.size(); ++i) {
      subset_weights[i] = weights[subset_rows[i]];
      weight_sum += subset_weights[i];
    }
    SPE_CHECK_GT(weight_sum, 0.0);
    for (double& w : subset_weights) w /= weight_sum;

    // The stage fits through an indexed view over the same rows the old
    // materializing Subset() copied.
    subset_abs.resize(subset_rows.size());
    for (std::size_t i = 0; i < subset_rows.size(); ++i) {
      subset_abs[i] = base.RowIndex(subset_rows[i]);
    }
    std::unique_ptr<Classifier> stage = base_prototype_->Clone();
    stage->Reseed(config_.seed + 104729 * (m + 1));
    stage->FitWeighted(base.WithIndices(subset_abs), subset_weights);

    // Real-boosting update on the full training set.
    if (!AddStage(std::move(stage), train, weights)) break;
  }
}

std::unique_ptr<Classifier> RusBoost::Clone() const {
  return std::make_unique<RusBoost>(config_, base_prototype_->Clone());
}

std::string RusBoost::Name() const {
  std::ostringstream os;
  os << "RUSBoost" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
