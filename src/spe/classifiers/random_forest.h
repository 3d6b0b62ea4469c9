#ifndef SPE_CLASSIFIERS_RANDOM_FOREST_H_
#define SPE_CLASSIFIERS_RANDOM_FOREST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "spe/classifiers/classifier.h"

namespace spe {

struct RandomForestConfig {
  std::size_t n_estimators = 10;
  int max_depth = 12;
  /// Features examined per node; 0 = floor(sqrt(d)).
  std::size_t max_features = 0;
  std::size_t min_samples_leaf = 1;
  std::uint64_t seed = 0;
};

/// Random forest: bootstrap-resampled, feature-subsampled decision trees
/// with averaged probability votes.
class RandomForest final : public VotingClassifier {
 public:
  explicit RandomForest(const RandomForestConfig& config = {});

  void Fit(const DatasetView& train) override;
  std::unique_ptr<Classifier> Clone() const override;
  void Reseed(std::uint64_t seed) override { config_.seed = seed; }
  std::string Name() const override;

 private:
  RandomForestConfig config_;
};

}  // namespace spe

#endif  // SPE_CLASSIFIERS_RANDOM_FOREST_H_
