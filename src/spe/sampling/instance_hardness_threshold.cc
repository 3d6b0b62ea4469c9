#include "spe/sampling/instance_hardness_threshold.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"

namespace spe {

InstanceHardnessThresholdSampler::InstanceHardnessThresholdSampler(
    std::unique_ptr<Classifier> probe, std::size_t folds)
    : probe_(std::move(probe)), folds_(folds) {
  SPE_CHECK_GE(folds, 2u);
  if (probe_ == nullptr) {
    DecisionTreeConfig config;
    config.max_depth = 5;
    probe_ = std::make_unique<DecisionTree>(config);
  }
}

bool InstanceHardnessThresholdSampler::SelectIndices(
    const Dataset& data, Rng& rng, std::vector<std::size_t>* keep) const {
  const std::vector<std::size_t> pos = data.PositiveIndices();
  const std::vector<std::size_t> neg = data.NegativeIndices();
  SPE_CHECK(!pos.empty());
  if (neg.size() <= pos.size()) {
    keep->resize(data.num_rows());
    std::iota(keep->begin(), keep->end(), std::size_t{0});
    return true;
  }

  // Out-of-fold positive-class probability for every row.
  std::vector<std::size_t> fold_of(data.num_rows());
  {
    std::vector<std::size_t> order(data.num_rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.Shuffle(order);
    for (std::size_t i = 0; i < order.size(); ++i) {
      fold_of[order[i]] = i % folds_;
    }
  }
  std::vector<double> prob(data.num_rows(), 0.0);
  for (std::size_t fold = 0; fold < folds_; ++fold) {
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> score_rows;
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      (fold_of[i] == fold ? score_rows : train_rows).push_back(i);
    }
    std::unique_ptr<Classifier> model = probe_->Clone();
    model->Reseed(rng.engine()());
    // Fit through an indexed view — the fold split copies no rows.
    model->Fit(DatasetView(data, train_rows));
    std::vector<double> row(data.num_features());
    for (std::size_t i : score_rows) {
      data.CopyRowTo(i, row);
      prob[i] = model->PredictRow(row);
    }
  }

  // Keep the |P| majority samples the probe classifies *best* (lowest
  // positive probability): hard/noisy majority is discarded.
  std::vector<std::size_t> order(neg.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return prob[neg[a]] < prob[neg[b]];
  });
  *keep = pos;
  for (std::size_t i = 0; i < pos.size(); ++i) keep->push_back(neg[order[i]]);
  std::sort(keep->begin(), keep->end());
  return true;
}

}  // namespace spe
