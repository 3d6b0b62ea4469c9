#include "spe/imbalance/under_bagging.h"

#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/rng.h"

namespace spe {

UnderBagging::UnderBagging(const UnderBaggingConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

UnderBagging::UnderBagging(const UnderBaggingConfig& config,
                           std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
}

void UnderBagging::Fit(const DatasetView& train) {
  train.CheckAlive();
  const std::vector<std::size_t> pos = train.PositiveIndices();
  const std::vector<std::size_t> neg = train.NegativeIndices();
  SPE_CHECK(!pos.empty());
  SPE_CHECK(!neg.empty());

  ensemble_ = VotingEnsemble();
  Rng rng(config_.seed);
  // Row-major views have no parent matrix to index into; materialize
  // once and run every per-member selection against the copy.
  Dataset owned;
  DatasetView base = train;
  if (train.row_major()) {
    owned = train.Materialize();
    base = DatasetView(owned);
  }
  const std::size_t bag_majority = std::min(pos.size(), neg.size());

  // Each member fits through an indexed view: all minority rows, then
  // the drawn majority rows — the same subset the materializing path
  // used to build, with zero feature bytes moved.
  std::vector<std::size_t> subset_abs;
  subset_abs.reserve(pos.size() + bag_majority);
  for (std::size_t m = 0; m < config_.n_estimators; ++m) {
    subset_abs.clear();
    for (std::size_t p : pos) subset_abs.push_back(base.RowIndex(p));
    for (std::size_t i : rng.SampleWithoutReplacement(neg.size(), bag_majority)) {
      subset_abs.push_back(base.RowIndex(neg[i]));
    }
    const DatasetView subset = base.WithIndices(subset_abs);
    std::unique_ptr<Classifier> member = base_prototype_->Clone();
    member->Reseed(config_.seed + 104729 * (m + 1));
    member->Fit(subset);
    ensemble_.Add(std::move(member));
    if (callback_) callback_(IterationInfo{m + 1, ensemble_, subset});
  }
}

std::unique_ptr<Classifier> UnderBagging::Clone() const {
  return std::make_unique<UnderBagging>(config_, base_prototype_->Clone());
}

std::string UnderBagging::Name() const {
  std::ostringstream os;
  os << Prefix() << config_.n_estimators;
  return os.str();
}

}  // namespace spe
