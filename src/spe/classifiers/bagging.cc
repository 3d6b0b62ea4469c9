#include "spe/classifiers/bagging.h"

#include <algorithm>
#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/common/rng.h"

namespace spe {

Bagging::Bagging(const BaggingConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
}

Bagging::Bagging(const BaggingConfig& config,
                 std::unique_ptr<Classifier> base_prototype)
    : config_(config), base_prototype_(std::move(base_prototype)) {
  SPE_CHECK_GT(config.n_estimators, 0u);
}

void Bagging::Fit(const DatasetView& train) {
  train.CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  ensemble_ = VotingEnsemble();
  Rng rng(config_.seed);
  const auto bag_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.max_samples *
                                  static_cast<double>(train.num_rows())));
  // All bags come from the one config RNG, drawn serially up front so
  // the stream is identical to the serial trainer's; after that each
  // member's randomness derives only from its own Reseed value, so the
  // members are independent and train concurrently with bit-identical
  // results for any thread count.
  std::vector<std::vector<std::size_t>> bags(config_.n_estimators);
  for (auto& bag : bags) {
    bag = rng.SampleWithReplacement(train.num_rows(), bag_size);
  }
  // Members fit through indexed views: each bag is rewritten to
  // parent-absolute rows and stacked on the incoming view, so a
  // bootstrap moves zero feature bytes. A row-major (external block)
  // view has no parent to index into — materialize once, bag over that.
  Dataset owned;
  DatasetView base = train;
  if (train.row_major()) {
    owned = train.Materialize();
    base = DatasetView(owned);
  } else {
    for (auto& bag : bags) {
      for (auto& r : bag) r = train.RowIndex(r);
    }
  }
  std::vector<std::unique_ptr<Classifier>> members(config_.n_estimators);
  ParallelForTasks(0, config_.n_estimators, [&](std::size_t m) {
    std::unique_ptr<Classifier> member;
    if (base_prototype_ != nullptr) {
      member = base_prototype_->Clone();
    } else {
      DecisionTreeConfig tree_config;
      tree_config.max_depth = 10;
      member = std::make_unique<DecisionTree>(tree_config);
    }
    member->Reseed(config_.seed + 1000003 * (m + 1));
    member->Fit(base.WithIndices(bags[m]));
    members[m] = std::move(member);
  });
  for (auto& member : members) ensemble_.Add(std::move(member));
}

std::unique_ptr<Classifier> Bagging::Clone() const {
  return base_prototype_ != nullptr
             ? std::make_unique<Bagging>(config_, base_prototype_->Clone())
             : std::make_unique<Bagging>(config_);
}

std::string Bagging::Name() const {
  std::ostringstream os;
  os << "Bagging" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
