#include "spe/classifiers/random_forest.h"

#include <cmath>
#include <sstream>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/check.h"
#include "spe/common/parallel.h"
#include "spe/common/rng.h"

namespace spe {

RandomForest::RandomForest(const RandomForestConfig& config) : config_(config) {
  SPE_CHECK_GT(config.n_estimators, 0u);
}

void RandomForest::Fit(const DatasetView& train) {
  train.CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  ensemble_ = VotingEnsemble();
  Rng rng(config_.seed);

  DecisionTreeConfig tree_config;
  tree_config.max_depth = config_.max_depth;
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  tree_config.max_features =
      config_.max_features > 0
          ? config_.max_features
          : static_cast<std::size_t>(
                std::floor(std::sqrt(static_cast<double>(train.num_features()))));

  // Bootstrap bags are drawn serially from the shared RNG (same stream
  // as the serial trainer), then the trees — whose only randomness is
  // their per-member seed — grow concurrently. Fixed-order Add keeps the
  // forest identical for any thread count.
  std::vector<std::vector<std::size_t>> bags(config_.n_estimators);
  for (auto& bag : bags) {
    bag = rng.SampleWithReplacement(train.num_rows(), train.num_rows());
  }
  // Trees fit through indexed views (bags rewritten to parent-absolute
  // rows), so a bootstrap moves zero feature bytes; row-major views are
  // materialized once first since they have no parent to index into.
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
  std::vector<std::unique_ptr<Classifier>> trees(config_.n_estimators);
  ParallelForTasks(0, config_.n_estimators, [&](std::size_t m) {
    DecisionTreeConfig member_config = tree_config;
    member_config.seed = config_.seed + 7919 * (m + 1);
    auto tree = std::make_unique<DecisionTree>(member_config);
    tree->Fit(base.WithIndices(bags[m]));
    trees[m] = std::move(tree);
  });
  for (auto& tree : trees) ensemble_.Add(std::move(tree));
}

std::unique_ptr<Classifier> RandomForest::Clone() const {
  return std::make_unique<RandomForest>(config_);
}

std::string RandomForest::Name() const {
  std::ostringstream os;
  os << "RandForest" << config_.n_estimators;
  return os.str();
}

}  // namespace spe
