#ifndef SPE_CLASSIFIERS_ADABOOST_H_
#define SPE_CLASSIFIERS_ADABOOST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"

namespace spe {

/// The one real-boosting classifier (binary SAMME.R): each stage
/// contributes the half-log-odds of its probability estimate, and
/// PredictRow returns sigmoid(2 * learning_rate * sum_m h_m(x)), the
/// additive-logistic probability, so boosters compose cleanly with
/// AUCPRC-style metrics and with SPE's hardness functions. AdaBoost,
/// RusBoost and SmoteBoost derive from it and keep only how each stage's
/// rows and weights are chosen; how a booster scores, answers stage
/// prefixes, re-weights the training set after a stage and persists
/// (SaveClassifier writes its stages under the AdaBoost tag) is defined
/// here, once.
class BoostedClassifier : public Classifier {
 public:
  double PredictRow(std::span<const double> x) const final;
  std::vector<double> PredictProba(const DatasetView& data) const final;
  /// PredictProba is a staged vote reduction, not a PredictRow loop, so
  /// this adds the batch path's result to keep its bits.
  void AccumulateProbaInto(const DatasetView& data,
                           std::span<double> acc) const final;

  /// Prediction using only the first min(k, NumStages()) stages — lets
  /// the Fig. 7 bench trace performance vs ensemble size from one fit.
  /// Requires k >= 1 and a fitted model.
  std::vector<double> PredictProbaStaged(const DatasetView& data,
                                         std::size_t k) const;

  std::size_t NumStages() const { return stages_.size(); }
  const Classifier& stage(std::size_t i) const { return *stages_[i]; }
  /// The shrinkage of every stage's contribution, read from the config.
  virtual double learning_rate() const = 0;

 protected:
  /// Appends a fitted stage, then applies the real-boosting update on
  /// `train`: w_i *= exp(-y_i * lr * HalfLogOdds(p_i)) with y in
  /// {-1, +1} and p the stage's probabilities, and normalizes `weights`
  /// (one per row of `train`, checked).
  /// Returns false when their sum is not positive and finite (a
  /// degenerate stage): Fit stops boosting there.
  bool AddStage(std::unique_ptr<Classifier> stage, const DatasetView& train,
                std::vector<double>& weights);

  std::vector<std::unique_ptr<Classifier>> stages_;
};

struct AdaBoostConfig {
  std::size_t n_estimators = 10;  // the paper's AdaBoost10
  double learning_rate = 1.0;
  /// Depth of the default decision-tree base (ignored when a custom base
  /// prototype is supplied).
  int base_max_depth = 3;
  std::uint64_t seed = 0;
};

/// Real AdaBoost: each stage fits a weight-supporting base learner on
/// the whole training set under the current boosting weights.
class AdaBoost final : public BoostedClassifier {
 public:
  explicit AdaBoost(const AdaBoostConfig& config = {});
  /// Boosts clones of `base_prototype` (must support sample weights).
  AdaBoost(const AdaBoostConfig& config, std::unique_ptr<Classifier> base_prototype);

  void Fit(const DatasetView& train) override;
  void FitWeighted(const DatasetView& train,
                   const std::vector<double>& weights) override;
  bool SupportsSampleWeights() const override { return true; }
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;
  double learning_rate() const override { return config_.learning_rate; }

  /// Reassembles a trained booster from previously trained stages
  /// (model persistence; the stages must all be fitted).
  static std::unique_ptr<AdaBoost> FromTrainedStages(
      const AdaBoostConfig& config,
      std::vector<std::unique_ptr<Classifier>> stages);

 private:
  AdaBoostConfig config_;
  std::unique_ptr<Classifier> base_prototype_;  // null => default tree
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_ADABOOST_H_
