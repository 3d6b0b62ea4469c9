// Throughput micro-benchmarks (google-benchmark) for the library's hot
// paths: tree / GBDT fitting, SPE fitting, re-sampling, metric
// computation. These back the efficiency claims quantitatively at
// component level; the end-to-end timing shape lives in table5.

#include <benchmark/benchmark.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/knn.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/core/self_paced_sampler.h"
#include "spe/data/synthetic.h"
#include "spe/metrics/metrics.h"
#include "spe/sampling/ncr.h"
#include "spe/sampling/random_under.h"
#include "spe/sampling/smote.h"

namespace {

spe::Dataset ImbalancedBlobs(std::size_t majority, std::size_t minority,
                             std::uint64_t seed) {
  spe::TwoGaussiansConfig config;
  config.num_minority = minority;
  config.imbalance_ratio =
      static_cast<double>(majority) / static_cast<double>(minority);
  config.overlapped = true;
  spe::Rng rng(seed);
  return spe::MakeTwoGaussians(config, rng);
}

// Args: (view rows, features). One SPE member fit: a balanced indexed
// view (every positive, as many negatives) over a 10:1 parent. 40k x 2
// is the checkerboard member spe_bench trains, 1.3k x 30 the credit one.
void BM_DecisionTreeFit(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  spe::Rng rng(1);
  spe::Dataset parent(d);
  std::vector<double> x(d);
  std::vector<std::size_t> view_rows;
  for (std::size_t i = 0; i < 11 * rows / 2; ++i) {
    const int label = i % 11 == 0 ? 1 : 0;
    for (std::size_t f = 0; f < d; ++f) x[f] = rng.Gaussian(label * 0.5, 1.0);
    parent.AddRow(x, label);
    if (label == 1 || i % 11 == 1) view_rows.push_back(i);
  }
  const spe::DatasetView view(parent, view_rows);
  for (auto _ : state) {
    spe::DecisionTree tree;
    tree.Fit(view);
    benchmark::DoNotOptimize(tree.NumNodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(view.num_rows()));
}
BENCHMARK(BM_DecisionTreeFit)->Args({40000, 2})->Args({1300, 30});

void BM_GbdtFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const spe::Dataset data = ImbalancedBlobs(n, n / 10, 2);
  spe::GbdtConfig config;
  config.boost_rounds = 10;
  for (auto _ : state) {
    spe::Gbdt gbdt(config);
    gbdt.Fit(data);
    benchmark::DoNotOptimize(gbdt.NumTrees());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.num_rows()));
}
BENCHMARK(BM_GbdtFit)->Arg(2000)->Arg(8000);

void BM_SpeFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const spe::Dataset data = ImbalancedBlobs(n, n / 20, 3);
  spe::SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  for (auto _ : state) {
    spe::SelfPacedEnsemble spe_model(config);
    spe_model.Fit(data);
    benchmark::DoNotOptimize(spe_model.NumMembers());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.num_rows()));
}
BENCHMARK(BM_SpeFit)->Arg(2000)->Arg(8000);

// Args: (majority rows, skewed). Uniform hardness spreads the rows over
// all 20 bins; skewed hardness (90% in [0, 0.1)) is the shape of a
// trained ensemble, where one bin holds most rows and gives few of them.
void BM_SelfPacedUnderSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool skewed = state.range(1) != 0;
  spe::Rng rng(4);
  std::vector<double> hardness(n);
  for (double& h : hardness) {
    h = !skewed ? rng.Uniform()
        : rng.Uniform() < 0.9 ? rng.Uniform(0.0, 0.1)
                              : rng.Uniform(0.1, 1.0);
  }
  for (auto _ : state) {
    const auto pick = spe::SelfPacedUnderSample(hardness, 0.3, 20, n / 50, rng);
    benchmark::DoNotOptimize(pick.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SelfPacedUnderSample)
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({200000, 1});

// The O(n) vs O(n^2) re-sampling contrast behind Table V's time column.
void BM_RandomUnderResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const spe::Dataset data = ImbalancedBlobs(n, n / 50, 5);
  spe::RandomUnderSampler sampler;
  spe::Rng rng(6);
  for (auto _ : state) {
    const spe::Dataset out = sampler.Resample(data, rng);
    benchmark::DoNotOptimize(out.num_rows());
  }
}
BENCHMARK(BM_RandomUnderResample)->Arg(2000)->Arg(8000);

void BM_NcrResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const spe::Dataset data = ImbalancedBlobs(n, n / 50, 7);
  spe::NcrSampler sampler;
  spe::Rng rng(8);
  for (auto _ : state) {
    const spe::Dataset out = sampler.Resample(data, rng);
    benchmark::DoNotOptimize(out.num_rows());
  }
}
BENCHMARK(BM_NcrResample)->Arg(2000)->Arg(8000);

void BM_SmoteResample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const spe::Dataset data = ImbalancedBlobs(n, n / 50, 9);
  spe::SmoteSampler sampler;
  spe::Rng rng(10);
  for (auto _ : state) {
    const spe::Dataset out = sampler.Resample(data, rng);
    benchmark::DoNotOptimize(out.num_rows());
  }
}
BENCHMARK(BM_SmoteResample)->Arg(2000)->Arg(8000);

void BM_KnnPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const spe::Dataset train = ImbalancedBlobs(n, n / 10, 11);
  const spe::Dataset test = ImbalancedBlobs(500, 50, 12);
  spe::Knn knn;
  knn.Fit(train);
  for (auto _ : state) {
    const auto probs = knn.PredictProba(test);
    benchmark::DoNotOptimize(probs.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(test.num_rows()));
}
BENCHMARK(BM_KnnPredict)->Arg(2000)->Arg(8000);

void BM_AucPrc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  spe::Rng rng(13);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = rng.Uniform() < 0.05 ? 1 : 0;
    scores[i] = rng.Uniform();
  }
  labels[0] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spe::AucPrc(labels, scores));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AucPrc)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
