#ifndef SPE_BENCH_BENCH_UTIL_H_
#define SPE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "spe/classifiers/classifier.h"
#include "spe/classifiers/factory.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/dataset.h"
#include "spe/imbalance/balance_cascade.h"
#include "spe/imbalance/under_bagging.h"
#include "spe/metrics/metrics.h"
#include "spe/sampling/sampler_factory.h"

namespace spe {
namespace bench {

/// The value at fraction `p` (0..1) of `values` sorted ascending: index
/// floor(p * size), clamped to the last; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

/// Builds one of the paper's "imbalance learning method x base
/// classifier" pipelines as a ready-to-fit classifier:
///  - "ORG"                      : the base classifier on the raw data
///  - sampler names ("RandUnder", "Clean", "SMOTE", ...): handled by
///    RunMethodOnce below (re-sample, then fit the base classifier)
///  - "Easy" / "UnderBagging"    : UnderBagging over the base (the two
///    coincide for a non-AdaBoost base, §VI-C.2)
///  - "Cascade"                  : BalanceCascade over the base
///  - "SPE"                      : Self-paced Ensemble over the base
/// `n` is the ensemble size (ignored for plain samplers).
inline std::unique_ptr<Classifier> MakeEnsembleMethod(
    const std::string& method, const std::string& classifier, std::size_t n,
    std::uint64_t seed) {
  if (method == "Easy" || method == "UnderBagging") {
    UnderBaggingConfig config;
    config.n_estimators = n;
    config.seed = seed;
    return std::make_unique<UnderBagging>(config,
                                          MakeClassifier(classifier, seed));
  }
  if (method == "Cascade") {
    BalanceCascadeConfig config;
    config.n_estimators = n;
    config.seed = seed;
    return std::make_unique<BalanceCascade>(config,
                                            MakeClassifier(classifier, seed));
  }
  if (method == "SPE") {
    SelfPacedEnsembleConfig config;
    config.n_estimators = n;
    config.seed = seed;
    return std::make_unique<SelfPacedEnsemble>(config,
                                               MakeClassifier(classifier, seed));
  }
  return nullptr;
}

/// Runs one (method, classifier) combination once: re-sample + fit for
/// data-level methods, direct fit for ensemble methods, plain fit for
/// "ORG". Returns nullopt when the method is inapplicable to the data
/// (distance-based method on categorical features) — the "- -" cells of
/// Table IV.
inline std::optional<ScoreSummary> RunMethodOnce(const std::string& method,
                                                 const std::string& classifier,
                                                 const Dataset& train,
                                                 const Dataset& test,
                                                 std::size_t n,
                                                 std::uint64_t seed) {
  if (auto model = MakeEnsembleMethod(method, classifier, n, seed)) {
    model->Fit(train);
    return Evaluate(test.labels(), model->PredictProba(test));
  }
  auto base = MakeClassifier(classifier, seed);
  if (method == "ORG") {
    base->Fit(train);
    return Evaluate(test.labels(), base->PredictProba(test));
  }
  const auto sampler = MakeSampler(method);
  if (sampler->RequiresNumericalFeatures() && train.HasCategoricalFeatures()) {
    return std::nullopt;
  }
  Rng rng(seed);
  std::vector<std::size_t> keep;
  if (sampler->SelectIndices(train, rng, &keep)) {
    // Pure under-sampler: fit through an indexed view — the resampled
    // "copy" is just this keep-list, no feature bytes move.
    base->Fit(DatasetView(train, keep));
  } else {
    const Dataset resampled = sampler->Resample(train, rng);
    base->Fit(resampled);
  }
  return Evaluate(test.labels(), base->PredictProba(test));
}

}  // namespace bench
}  // namespace spe

#endif  // SPE_BENCH_BENCH_UTIL_H_
