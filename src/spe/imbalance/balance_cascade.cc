#include "spe/imbalance/balance_cascade.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/rng.h"

namespace spe {

BalanceCascade::BalanceCascade(const BalanceCascadeConfig& config)
    : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  DecisionTreeConfig tree_config;
  tree_config.max_depth = 10;
  base_prototype_ = std::make_unique<DecisionTree>(tree_config);
}

BalanceCascade::BalanceCascade(const BalanceCascadeConfig& config,
                               std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
  SPE_CHECK(base_prototype_ != nullptr);
}

void BalanceCascade::Fit(const DatasetView& train) {
  train.CheckAlive();
  const std::vector<std::size_t> pos = train.PositiveIndices();
  const std::vector<std::size_t> neg = train.NegativeIndices();
  SPE_CHECK(!pos.empty());
  SPE_CHECK(!neg.empty());

  ensemble_ = VotingEnsemble();
  Rng rng(config_.seed);
  // Row-major views have no parent matrix to index into; materialize
  // once and run the cascade of index selections against the copy.
  Dataset owned;
  DatasetView base = train;
  if (train.row_major()) {
    owned = train.Materialize();
    base = DatasetView(owned);
  }
  // Parent-absolute rows of each class; the cascade only ever shuffles
  // and prunes these index sets — no row is copied again.
  std::vector<std::size_t> pos_abs(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) pos_abs[i] = base.RowIndex(pos[i]);
  std::vector<std::size_t> neg_abs(neg.size());
  for (std::size_t i = 0; i < neg.size(); ++i) neg_abs[i] = base.RowIndex(neg[i]);

  // Per-iteration pool keep ratio so the pool lands at ~|P| when the
  // last member trains.
  const double keep_ratio =
      config_.n_estimators <= 1
          ? 1.0
          : std::pow(static_cast<double>(pos.size()) /
                         static_cast<double>(neg.size()),
                     1.0 / static_cast<double>(config_.n_estimators - 1));

  // pool holds positions into `neg_abs` that are still candidates.
  std::vector<std::size_t> pool(neg_abs.size());
  std::iota(pool.begin(), pool.end(), std::size_t{0});

  std::vector<std::size_t> subset_abs;
  std::vector<std::size_t> pool_abs;
  for (std::size_t m = 0; m < config_.n_estimators; ++m) {
    // Balanced subset: all minority + |P| samples from the current pool,
    // expressed as an indexed view (zero feature bytes moved).
    const std::size_t take = std::min(pool.size(), pos.size());
    subset_abs.assign(pos_abs.begin(), pos_abs.end());
    subset_abs.reserve(pos_abs.size() + take);
    for (std::size_t i : rng.SampleWithoutReplacement(pool.size(), take)) {
      subset_abs.push_back(neg_abs[pool[i]]);
    }
    const DatasetView subset = base.WithIndices(subset_abs);

    std::unique_ptr<Classifier> member = base_prototype_->Clone();
    member->Reseed(config_.seed + 104729 * (m + 1));
    member->Fit(subset);
    ensemble_.Add(std::move(member));
    if (callback_) callback_(IterationInfo{m + 1, ensemble_, subset});
    if (m + 1 == config_.n_estimators) break;

    // Discard the pool samples the ensemble classifies best (lowest
    // predicted positive probability), keeping the hard remainder.
    const std::size_t target_size = std::max(
        pos.size(), static_cast<std::size_t>(
                        std::ceil(static_cast<double>(pool.size()) * keep_ratio)));
    if (target_size >= pool.size()) continue;

    pool_abs.resize(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) pool_abs[i] = neg_abs[pool[i]];
    const std::vector<double> probs =
        ensemble_.PredictProba(base.WithIndices(pool_abs));
    std::vector<std::size_t> order(pool.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Hardest (highest probability of being positive) first.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return probs[a] > probs[b];
    });
    std::vector<std::size_t> next_pool;
    next_pool.reserve(target_size);
    for (std::size_t i = 0; i < target_size; ++i) {
      next_pool.push_back(pool[order[i]]);
    }
    pool = std::move(next_pool);
  }
}

std::unique_ptr<Classifier> BalanceCascade::Clone() const {
  return std::make_unique<BalanceCascade>(config_, base_prototype_->Clone());
}

std::string BalanceCascade::Name() const {
  std::ostringstream os;
  os << "Cascade" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
