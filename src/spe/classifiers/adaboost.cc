#include "spe/classifiers/adaboost.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/math.h"

namespace spe {

double BoostedClassifier::PredictRow(std::span<const double> x) const {
  SPE_CHECK(!stages_.empty()) << "predict before fit";
  double score = 0.0;
  for (const auto& stage : stages_) score += HalfLogOdds(stage->PredictRow(x));
  return Sigmoid(2.0 * learning_rate() * score);
}

std::vector<double> BoostedClassifier::PredictProba(
    const DatasetView& data) const {
  return PredictProbaStaged(data, stages_.size());
}

void BoostedClassifier::AccumulateProbaInto(const DatasetView& data,
                                            std::span<double> acc) const {
  AccumulateViaPredictProba(data, acc);
}

std::vector<double> BoostedClassifier::PredictProbaStaged(
    const DatasetView& data, std::size_t k) const {
  SPE_CHECK(!stages_.empty()) << "predict before fit";
  const std::size_t use = std::min(k, stages_.size());
  SPE_CHECK_GT(use, 0u);
  std::vector<double> score(data.num_rows(), 0.0);
  for (std::size_t m = 0; m < use; ++m) {
    const std::vector<double> p = stages_[m]->PredictProba(data);
    for (std::size_t i = 0; i < score.size(); ++i) score[i] += HalfLogOdds(p[i]);
  }
  const double lr = learning_rate();
  for (double& s : score) s = Sigmoid(2.0 * lr * s);
  return score;
}

bool BoostedClassifier::AddStage(std::unique_ptr<Classifier> stage,
                                 const DatasetView& train,
                                 std::vector<double>& weights) {
  const std::vector<double> probs = stage->PredictProba(train);
  SPE_CHECK_EQ(weights.size(), probs.size());
  stages_.push_back(std::move(stage));
  const double lr = learning_rate();
  double sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double y = train.Label(i) == 1 ? 1.0 : -1.0;
    weights[i] *= std::exp(-y * lr * HalfLogOdds(probs[i]));
    sum += weights[i];
  }
  if (sum <= 0.0 || !std::isfinite(sum)) return false;
  for (double& w : weights) w /= sum;
  return true;
}

AdaBoost::AdaBoost(const AdaBoostConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
}

AdaBoost::AdaBoost(const AdaBoostConfig& config,
                   std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK(base_prototype_ == nullptr || base_prototype_->SupportsSampleWeights())
      << "AdaBoost base learner must support sample weights";
}

void AdaBoost::Fit(const DatasetView& train) { FitWeighted(train, {}); }

void AdaBoost::FitWeighted(const DatasetView& train,
                           const std::vector<double>& initial_weights) {
  train.CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  const std::size_t n = train.num_rows();
  std::vector<double> w = initial_weights;
  if (w.empty()) {
    w.assign(n, 1.0 / static_cast<double>(n));
  } else {
    SPE_CHECK_EQ(w.size(), n);
    double sum = 0.0;
    for (double v : w) sum += v;
    SPE_CHECK_GT(sum, 0.0);
    for (double& v : w) v /= sum;
  }

  stages_.clear();
  for (std::size_t m = 0; m < config_.n_estimators; ++m) {
    std::unique_ptr<Classifier> stage;
    if (base_prototype_ != nullptr) {
      stage = base_prototype_->Clone();
    } else {
      DecisionTreeConfig tree_config;
      tree_config.max_depth = config_.base_max_depth;
      stage = std::make_unique<DecisionTree>(tree_config);
    }
    stage->Reseed(config_.seed + m);
    stage->FitWeighted(train, w);
    if (!AddStage(std::move(stage), train, w)) break;  // degenerate stage
  }
}

std::unique_ptr<AdaBoost> AdaBoost::FromTrainedStages(
    const AdaBoostConfig& config,
    std::vector<std::unique_ptr<Classifier>> stages) {
  SPE_CHECK(!stages.empty());
  auto model = std::make_unique<AdaBoost>(config);
  model->stages_ = std::move(stages);
  return model;
}

std::unique_ptr<Classifier> AdaBoost::Clone() const {
  auto copy = base_prototype_ != nullptr
                  ? std::make_unique<AdaBoost>(config_, base_prototype_->Clone())
                  : std::make_unique<AdaBoost>(config_);
  return copy;
}

std::string AdaBoost::Name() const {
  std::ostringstream os;
  os << "AdaBoost" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
