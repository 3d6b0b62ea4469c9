#ifndef SPE_CLASSIFIERS_GBDT_GBDT_H_
#define SPE_CLASSIFIERS_GBDT_GBDT_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/classifiers/gbdt/binning.h"
#include "spe/classifiers/gbdt/tree.h"
#include "spe/kernels/program.h"

namespace spe {

struct GbdtConfig {
  std::size_t boost_rounds = 10;  // the paper's GBDT10
  double learning_rate = 0.1;
  int max_bins = 64;
  gbdt::TreeParams tree;
  /// Row fraction each tree trains on (stochastic gradient boosting,
  /// Friedman 2002 — the paper's GBDT reference). 1 disables subsampling.
  double subsample = 1.0;
  std::uint64_t seed = 0;  // drives row subsampling only
  /// Stop when validation logloss has not improved for this many rounds
  /// (only applies to FitWithValidation; 0 disables early stopping).
  std::size_t early_stopping_rounds = 5;
};

/// Histogram-based gradient-boosted decision trees with logistic loss —
/// the from-scratch stand-in for the paper's LightGBM baseline.
/// Second-order (Newton) boosting: g = p - y, h = p (1 - p).
/// Supports per-example weights (weighted gradients), so it can serve as
/// a base learner anywhere a tree can.
class Gbdt final : public Classifier, public kernels::FlatCompilable {
 public:
  explicit Gbdt(const GbdtConfig& config = {});

  void Fit(const DatasetView& train) override;
  void FitWeighted(const DatasetView& train, const std::vector<double>& weights) override;
  bool SupportsSampleWeights() const override { return true; }

  /// Fits with early stopping monitored on `validation` (kept at its
  /// natural distribution, per the paper's protocol §VI-B.1). The model
  /// keeps only the best round count.
  void FitWithValidation(const DatasetView& train, const DatasetView& validation);

  double PredictRow(std::span<const double> x) const override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

  std::size_t NumTrees() const { return trees_.size(); }
  double base_score() const { return base_score_; }

  /// Text serialization of the fitted booster. The feature binner is not
  /// saved — fitted trees carry raw-value thresholds, so a loaded model
  /// predicts but cannot resume training. LoadModel reads a booster
  /// scoring rows of `num_features` and throws MalformedPayload on
  /// bytes SaveModel could not have written.
  void SaveModel(std::ostream& os) const;
  static Gbdt LoadModel(std::istream& is, std::size_t num_features);

  /// Per-feature importance: total split gain across all trees,
  /// normalized to sum to 1 (all-zero when no tree found any split).
  /// Requires a model trained in-process (not restored via LoadModel).
  std::vector<double> FeatureImportances() const;

  /// Lowers the fitted booster into a kBoostLogit member op (false
  /// when unfitted): the kernel replays base_score + lr·leaf per tree
  /// in order, then the same sigmoid, matching PredictRow bit-for-bit.
  bool LowerToFlat(kernels::FlatProgram& program,
                   kernels::MemberOp& op) const override;

 private:
  void FitImpl(const DatasetView& train, const std::vector<double>& weights,
               const DatasetView* validation);

  GbdtConfig config_;
  gbdt::FeatureBinner binner_;
  std::vector<gbdt::RegressionTree> trees_;
  double base_score_ = 0.0;  // prior log-odds
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_GBDT_GBDT_H_
