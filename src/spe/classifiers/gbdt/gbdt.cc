#include "spe/classifiers/gbdt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>

#include "spe/common/check.h"
#include "spe/common/math.h"
#include "spe/common/parse.h"
#include "spe/common/rng.h"

namespace spe {
namespace {

double LogLoss(const std::vector<int>& labels, const std::vector<double>& probs) {
  constexpr double kEps = 1e-12;
  double loss = 0.0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const double p = std::clamp(probs[i], kEps, 1.0 - kEps);
    loss -= labels[i] == 1 ? std::log(p) : std::log(1.0 - p);
  }
  return loss / static_cast<double>(labels.size());
}

}  // namespace

Gbdt::Gbdt(const GbdtConfig& config) : config_(config) {
  SPE_CHECK_GT(config.boost_rounds, 0u);
}

void Gbdt::Fit(const DatasetView& train) { FitImpl(train, {}, nullptr); }

void Gbdt::FitWeighted(const DatasetView& train,
                       const std::vector<double>& weights) {
  FitImpl(train, weights, nullptr);
}

void Gbdt::FitWithValidation(const DatasetView& train,
                             const DatasetView& validation) {
  FitImpl(train, {}, &validation);
}

void Gbdt::FitImpl(const DatasetView& train, const std::vector<double>& weights,
                   const DatasetView* validation) {
  train.CheckAlive();
  if (validation != nullptr) validation->CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  const std::size_t n = train.num_rows();
  std::vector<double> w = weights;
  if (w.empty()) {
    w.assign(n, 1.0);
  } else {
    SPE_CHECK_EQ(w.size(), n);
  }

  binner_.Fit(train, config_.max_bins);
  const gbdt::BinnedMatrix binned = binner_.Transform(train);

  // Prior: weighted log-odds of the positive rate, clamped away from the
  // degenerate single-class case.
  double pos_weight = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total_weight += w[i];
    if (train.Label(i) == 1) pos_weight += w[i];
  }
  SPE_CHECK_GT(total_weight, 0.0);
  const double prior = std::clamp(pos_weight / total_weight, 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(prior / (1.0 - prior));

  trees_.clear();
  std::vector<double> scores(n, base_score_);
  std::vector<double> grads(n);
  std::vector<double> hess(n);
  std::vector<double> tree_outputs(n, 0.0);
  std::vector<std::size_t> rows(n);

  // Validation-side running scores for early stopping.
  std::vector<double> val_scores;
  std::vector<double> val_probs;
  std::vector<int> val_labels;
  if (validation != nullptr) {
    val_scores.assign(validation->num_rows(), base_score_);
    val_probs.resize(validation->num_rows());
    val_labels = validation->LabelsVector();
  }
  std::vector<double> row_scratch(train.num_features());
  double best_val_loss = std::numeric_limits<double>::infinity();
  std::size_t best_round = 0;
  std::size_t rounds_since_best = 0;

  Rng subsample_rng(config_.seed);
  const bool subsampled = config_.subsample < 1.0;
  SPE_CHECK_GT(config_.subsample, 0.0);

  for (std::size_t round = 0; round < config_.boost_rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(scores[i]);
      grads[i] = w[i] * (p - static_cast<double>(train.Label(i)));
      hess[i] = w[i] * std::max(p * (1.0 - p), 1e-12);
    }
    gbdt::RegressionTree tree;
    if (subsampled) {
      // Stochastic gradient boosting: each tree sees a row subsample;
      // scores of skipped rows update through the fitted tree.
      const auto take = std::max<std::size_t>(
          1, static_cast<std::size_t>(config_.subsample *
                                      static_cast<double>(n)));
      rows = subsample_rng.SampleWithoutReplacement(n, take);
      tree.Fit(binned, binner_, grads, hess, rows, config_.tree, tree_outputs);
      for (std::size_t i = 0; i < n; ++i) {
        train.CopyRowTo(i, row_scratch);
        scores[i] += config_.learning_rate * tree.Predict(row_scratch);
      }
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), std::size_t{0});
      tree.Fit(binned, binner_, grads, hess, rows, config_.tree, tree_outputs);
      for (std::size_t i = 0; i < n; ++i) {
        scores[i] += config_.learning_rate * tree_outputs[i];
      }
    }
    trees_.push_back(std::move(tree));

    if (validation != nullptr && config_.early_stopping_rounds > 0) {
      for (std::size_t i = 0; i < validation->num_rows(); ++i) {
        validation->CopyRowTo(i, row_scratch);
        val_scores[i] += config_.learning_rate *
                         trees_.back().Predict(row_scratch);
        val_probs[i] = Sigmoid(val_scores[i]);
      }
      const double loss = LogLoss(val_labels, val_probs);
      if (loss < best_val_loss - 1e-9) {
        best_val_loss = loss;
        best_round = trees_.size();
        rounds_since_best = 0;
      } else if (++rounds_since_best >= config_.early_stopping_rounds) {
        break;
      }
    }
  }

  if (validation != nullptr && config_.early_stopping_rounds > 0 &&
      best_round > 0) {
    trees_.resize(best_round);
  }
}

double Gbdt::PredictRow(std::span<const double> x) const {
  SPE_CHECK(!trees_.empty()) << "predict before fit";
  double score = base_score_;
  for (const auto& tree : trees_) score += config_.learning_rate * tree.Predict(x);
  return Sigmoid(score);
}

std::unique_ptr<Classifier> Gbdt::Clone() const {
  return std::make_unique<Gbdt>(config_);
}

bool Gbdt::LowerToFlat(kernels::FlatProgram& program,
                       kernels::MemberOp& op) const {
  if (trees_.empty()) return false;
  op.kind = kernels::MemberOp::Kind::kBoostLogit;
  op.tree_begin = static_cast<std::int32_t>(program.trees.size());
  for (const auto& tree : trees_) tree.LowerToFlat(program);
  op.tree_end = static_cast<std::int32_t>(program.trees.size());
  op.base_score = base_score_;
  op.learning_rate = config_.learning_rate;
  return true;
}

std::vector<double> Gbdt::FeatureImportances() const {
  SPE_CHECK(!trees_.empty()) << "importances before fit";
  SPE_CHECK(!trees_.front().split_gains().empty())
      << "importances unavailable on a model restored from disk";
  std::vector<double> gains(trees_.front().split_gains().size(), 0.0);
  for (const auto& tree : trees_) {
    for (std::size_t f = 0; f < gains.size(); ++f) {
      gains[f] += tree.split_gains()[f];
    }
  }
  double sum = 0.0;
  for (double g : gains) sum += g;
  if (sum > 0.0) {
    for (double& g : gains) g /= sum;
  }
  return gains;
}

void Gbdt::SaveModel(std::ostream& os) const {
  SPE_CHECK(!trees_.empty()) << "cannot save an unfitted booster";
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "base_score " << base_score_ << "\n";
  os << "learning_rate " << config_.learning_rate << "\n";
  os << "trees " << trees_.size() << "\n";
  for (const auto& tree : trees_) tree.Save(os);
}

Gbdt Gbdt::LoadModel(std::istream& is, std::size_t num_features) {
  std::string keyword;
  GbdtConfig config;
  Gbdt model(config);
  std::size_t count = 0;
  is >> keyword >> model.base_score_;
  PayloadCheck(is.good() && keyword == "base_score", "malformed gbdt model");
  is >> keyword >> model.config_.learning_rate;
  PayloadCheck(is.good() && keyword == "learning_rate", "malformed gbdt model");
  is >> keyword >> count;
  PayloadCheck(is.good() && keyword == "trees" && count > 0 &&
                   count <= BytesLeft(is) / 16,
               "malformed gbdt model");
  model.trees_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    model.trees_.push_back(gbdt::RegressionTree::Load(is, num_features));
  }
  // Keep Name() consistent with the restored tree count.
  model.config_.boost_rounds = count;
  return model;
}

std::string Gbdt::Name() const {
  std::ostringstream os;
  os << "GBDT" << config_.boost_rounds;
  return os.str();
}

}  // namespace spe
