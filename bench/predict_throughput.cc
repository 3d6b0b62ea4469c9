// predict_throughput — flat SoA inference kernel vs the reference
// scoring path (BENCH_predict.json).
//
// Trains the forest workloads the kernel targets — the paper's SPE10
// (10 depth-10 trees), a 100-tree RandomForest, and an SPE ensemble of
// GBDT members — then scores one large checkerboard batch through both
// paths, at 1 thread and at the machine default, and prints one JSON
// report: rows/sec per path, the flat/reference speedup, and an
// `identical` flag from byte-comparing every probability vector against
// the single-threaded reference. The flag is the contract: the fast
// path must be a pure speed change. Exits nonzero on any mismatch.
//
// Timing methodology: the two paths are measured interleaved with
// alternating pass order (after one untimed warm-up pass each), never
// back to back, so cache warm-up doesn't bias the comparison. The
// unsuffixed rows/sec keys are the MEDIAN pass; the `_best` keys are
// the fastest pass (min wall time). `speedup_1t` is median-based.
//
//   predict_throughput [--rows N] [--passes P] [--train-rows R]
//                      [--out FILE]
//
// Writes the JSON report to stdout and to --out (default
// BENCH_predict.json in the working directory). A scoring path earns a
// place in the kernel only by beating the default on `speedup_1t` by
// >= 1.2x on at least one workload here (docs/performance.md); every
// run must report "identical": true.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/parallel.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/synthetic.h"
#include "spe/kernels/flat_forest.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"

namespace {

using spe::bench::FlagValue;
using spe::bench::StringFlag;

struct Run {
  double rows_per_sec_best = 0.0;    // fastest pass (min wall time)
  double rows_per_sec_median = 0.0;  // median pass
  std::vector<double> probs;
};

double TimeOnePass(const spe::Classifier& model, const spe::Dataset& data,
                   std::vector<double>* probs) {
  const auto t0 = std::chrono::steady_clock::now();
  *probs = model.PredictProba(data);
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Run Summarize(std::vector<double> secs, std::size_t rows,
              std::vector<double> probs) {
  Run run;
  run.probs = std::move(probs);
  if (secs.empty()) return run;
  std::sort(secs.begin(), secs.end());
  const double best = secs.front();
  const double median =
      secs.size() % 2 == 1
          ? secs[secs.size() / 2]
          : 0.5 * (secs[secs.size() / 2 - 1] + secs[secs.size() / 2]);
  run.rows_per_sec_best = best > 0 ? static_cast<double>(rows) / best : 0.0;
  run.rows_per_sec_median =
      median > 0 ? static_cast<double>(rows) / median : 0.0;
  return run;
}

// Interleaved timing of the reference and flat paths at the current
// thread count. A naive back-to-back layout (all reference passes, then
// all flat passes) hands the second path warm caches and a trained
// branch predictor, biasing the speedup; instead one untimed warm-up
// pass runs per path and the timed passes alternate which path goes
// first, so both orderings contribute equally. Min and median wall time
// are both reported — min shows peak kernel speed, median absorbs
// scheduler noise. The last probability vector per path is kept for the
// byte-identity comparison (every pass of a path must produce the same
// bytes; the test suite enforces that, here we compare across paths).
struct PathPair {
  Run ref;
  Run flat;
};

PathPair MeasurePaths(const spe::Classifier& model, const spe::Dataset& data,
                      int passes) {
  std::vector<double> ref_secs, flat_secs;
  std::vector<double> ref_probs, flat_probs;
  for (int warm = 0; warm < 2; ++warm) {
    spe::kernels::SetFlatKernelEnabled(warm == 1);
    (void)model.PredictProba(data);
  }
  for (int p = 0; p < passes; ++p) {
    const bool flat_first = (p % 2) != 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool flat = (leg == 0) == flat_first;
      spe::kernels::SetFlatKernelEnabled(flat);
      auto& secs = flat ? flat_secs : ref_secs;
      auto& probs = flat ? flat_probs : ref_probs;
      secs.push_back(TimeOnePass(model, data, &probs));
    }
  }
  spe::kernels::SetFlatKernelEnabled(true);
  PathPair pair;
  pair.ref = Summarize(std::move(ref_secs), data.num_rows(),
                       std::move(ref_probs));
  pair.flat = Summarize(std::move(flat_secs), data.num_rows(),
                        std::move(flat_probs));
  return pair;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

int main(int argc, char** argv) {
  const long rows = FlagValue(argc, argv, "--rows", 200'000);
  const int passes =
      static_cast<int>(FlagValue(argc, argv, "--passes", 3));
  const long train_rows = FlagValue(argc, argv, "--train-rows", 11'000);
  const std::string out_path =
      StringFlag(argc, argv, "--out", "BENCH_predict.json");

  // Span counts in the report need tracing on regardless of SPE_OBS.
  spe::obs::SetEnabled(true);

  spe::Rng rng(42);
  spe::CheckerboardConfig train_config;
  train_config.num_minority = static_cast<std::size_t>(train_rows) / 11;
  train_config.num_majority =
      static_cast<std::size_t>(train_rows) - train_config.num_minority;
  const spe::Dataset train = spe::MakeCheckerboard(train_config, rng);

  spe::CheckerboardConfig score_config;
  score_config.num_minority = static_cast<std::size_t>(rows) / 11;
  score_config.num_majority =
      static_cast<std::size_t>(rows) - score_config.num_minority;
  const spe::Dataset data = spe::MakeCheckerboard(score_config, rng);

  // The workloads the kernel is built for: the paper's SPE10 forest, a
  // wide bagged forest, and boosted members inside an SPE vote.
  std::vector<std::pair<std::string, std::unique_ptr<spe::Classifier>>>
      workloads;
  {
    spe::SelfPacedEnsembleConfig config;
    config.n_estimators = 10;
    spe::DecisionTreeConfig tree;
    tree.max_depth = 10;
    workloads.emplace_back(
        "spe10", std::make_unique<spe::SelfPacedEnsemble>(
                     config, std::make_unique<spe::DecisionTree>(tree)));
  }
  {
    spe::RandomForestConfig config;
    config.n_estimators = 100;
    workloads.emplace_back("rf100",
                           std::make_unique<spe::RandomForest>(config));
  }
  {
    spe::SelfPacedEnsembleConfig config;
    config.n_estimators = 5;
    spe::GbdtConfig gbdt;
    gbdt.boost_rounds = 10;
    workloads.emplace_back(
        "spe5_gbdt10", std::make_unique<spe::SelfPacedEnsemble>(
                           config, std::make_unique<spe::Gbdt>(gbdt)));
  }

  const std::size_t default_threads = spe::NumThreads();
  bool all_identical = true;
  std::string json = "{\"bench\":\"predict_throughput\",\"rows\":" +
                     std::to_string(data.num_rows()) +
                     ",\"passes\":" + std::to_string(passes) +
                     ",\"threads_n\":" + std::to_string(default_threads) +
                     ",\"workloads\":[";
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const std::string& name = workloads[w].first;
    spe::Classifier& model = *workloads[w].second;
    std::fprintf(stderr, "training %s on %s\n", name.c_str(),
                 train.Summary().c_str());
    model.Fit(train);

    std::fprintf(stderr, "scoring %zu rows x %d passes (%s)\n",
                 data.num_rows(), passes, name.c_str());
    spe::SetNumThreads(1);
    const PathPair one = MeasurePaths(model, data, passes);
    const char* kernel = spe::kernels::ActiveKernel(model);
    spe::SetNumThreads(0);  // SPE_THREADS / hardware default
    const PathPair many = MeasurePaths(model, data, passes);

    // Everything must match the single-threaded reference bytes: the
    // kernel and the thread count are both pure speed knobs.
    const bool identical = SameBytes(one.ref.probs, one.flat.probs) &&
                           SameBytes(one.ref.probs, many.ref.probs) &&
                           SameBytes(one.ref.probs, many.flat.probs);
    all_identical = all_identical && identical;
    const double speedup_1t =
        one.ref.rows_per_sec_median > 0
            ? one.flat.rows_per_sec_median / one.ref.rows_per_sec_median
            : 0.0;
    const double speedup_1t_best =
        one.ref.rows_per_sec_best > 0
            ? one.flat.rows_per_sec_best / one.ref.rows_per_sec_best
            : 0.0;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"kernel\":\"%s\","
        "\"reference_rows_per_sec_1t\":%.0f,\"flat_rows_per_sec_1t\":%.0f,"
        "\"reference_rows_per_sec_1t_best\":%.0f,"
        "\"flat_rows_per_sec_1t_best\":%.0f,"
        "\"reference_rows_per_sec_nt\":%.0f,\"flat_rows_per_sec_nt\":%.0f,"
        "\"reference_rows_per_sec_nt_best\":%.0f,"
        "\"flat_rows_per_sec_nt_best\":%.0f,"
        "\"speedup_1t\":%.2f,\"speedup_1t_best\":%.2f,\"identical\":%s}",
        w == 0 ? "" : ",", name.c_str(), kernel,
        one.ref.rows_per_sec_median, one.flat.rows_per_sec_median,
        one.ref.rows_per_sec_best, one.flat.rows_per_sec_best,
        many.ref.rows_per_sec_median, many.flat.rows_per_sec_median,
        many.ref.rows_per_sec_best, many.flat.rows_per_sec_best,
        speedup_1t, speedup_1t_best, identical ? "true" : "false");
    json += buf;
    std::fprintf(stderr,
                 "%s: ref %.0f rows/s, flat %.0f rows/s "
                 "(median %.2fx, best %.2fx), %s\n",
                 name.c_str(), one.ref.rows_per_sec_median,
                 one.flat.rows_per_sec_median, speedup_1t, speedup_1t_best,
                 identical ? "identical" : "MISMATCH");
  }
  json += "],\"identical\":";
  json += all_identical ? "true" : "false";
  json += ",\"spans\":" + spe::obs::SpanSummariesJson() + "}";
  std::printf("%s\n", json.c_str());
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return all_identical ? 0 : 1;
}
