#include "spe/imbalance/smote_bagging.h"

#include <algorithm>
#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/rng.h"
#include "spe/sampling/smote.h"

namespace spe {

SmoteBagging::SmoteBagging(const SmoteBaggingConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

SmoteBagging::SmoteBagging(const SmoteBaggingConfig& config,
                           std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
}

void SmoteBagging::Fit(const DatasetView& train) {
  train.CheckAlive();
  const std::vector<std::size_t> pos = train.PositiveIndices();
  const std::vector<std::size_t> neg = train.NegativeIndices();
  SPE_CHECK_GT(pos.size(), 1u);
  SPE_CHECK(!neg.empty());

  ensemble_ = VotingEnsemble();
  total_training_rows_ = 0;
  Rng rng(config_.seed);

  for (std::size_t m = 0; m < config_.n_estimators; ++m) {
    // Resampling rate ramps 10% -> 100% across bags (Wang & Yao's
    // schedule): the fraction of the minority quota filled by bootstrap
    // copies, the rest by SMOTE synthesis.
    const double rate =
        0.1 + 0.9 * (config_.n_estimators <= 1
                         ? 1.0
                         : static_cast<double>(m) /
                               static_cast<double>(config_.n_estimators - 1));

    // Majority side: plain bootstrap of |N| rows.
    Dataset bag(train.num_features());
    for (std::size_t f = 0; f < train.num_features(); ++f) {
      bag.set_feature_kind(f, train.feature_kind(f));
    }
    bag.Reserve(2 * neg.size());
    std::vector<double> row(train.num_features());
    for (std::size_t i : rng.SampleWithReplacement(neg.size(), neg.size())) {
      train.CopyRowTo(neg[i], row);
      bag.AddRow(row, 0);
    }

    // Minority side: bootstrap `rate * |N|` rows, SMOTE the remainder.
    const auto bootstrap_quota = std::clamp<std::size_t>(
        static_cast<std::size_t>(rate * static_cast<double>(neg.size()) + 0.5),
        1, neg.size());
    std::vector<std::size_t> bag_pos_rows;  // rows (in bag) of real minority
    for (std::size_t i :
         rng.SampleWithReplacement(pos.size(), bootstrap_quota)) {
      bag_pos_rows.push_back(bag.num_rows());
      train.CopyRowTo(pos[i], row);
      bag.AddRow(row, 1);
    }
    const std::size_t synthetic_quota = neg.size() - bootstrap_quota;
    if (synthetic_quota > 0) {
      std::vector<std::size_t> counts(bag_pos_rows.size(),
                                      synthetic_quota / bag_pos_rows.size());
      for (std::size_t i = 0; i < synthetic_quota % bag_pos_rows.size(); ++i) {
        ++counts[i];
      }
      bag = WithSyntheticMinority(bag, bag_pos_rows, counts, config_.smote_k, rng);
    }
    total_training_rows_ += bag.num_rows();

    std::unique_ptr<Classifier> member = base_prototype_->Clone();
    member->Reseed(config_.seed + 104729 * (m + 1));
    member->Fit(bag);
    ensemble_.Add(std::move(member));
    if (callback_) callback_(IterationInfo{m + 1, ensemble_, bag});
  }
}

std::unique_ptr<Classifier> SmoteBagging::Clone() const {
  return std::make_unique<SmoteBagging>(config_, base_prototype_->Clone());
}

std::string SmoteBagging::Name() const {
  std::ostringstream os;
  os << "SMOTEBagging" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
