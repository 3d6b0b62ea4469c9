// train_throughput — training / batch-scoring throughput at 1 vs N
// threads, plus an inline check of the determinism contract.
//
// Trains SPE / Bagging / RandomForest on an enlarged checkerboard
// (paper §VI-A geometry), once with the thread pool pinned to a single
// thread and once at --threads (default: spe::NumThreads(), i.e.
// SPE_THREADS or the hardware thread count), and reports fit and batch-
// scoring rows/sec for both. Before reporting, it byte-compares the
// predictions and the serialized artifacts across the two runs: the
// speedup is only admissible if the results are bit-identical, so a
// mismatch exits nonzero and poisons the report with "identical":false.
// It then times the SPE fit with a checkpoint published every iteration
// against the plain fit, in 11 interleaved pairs at --threads.
//
//   train_throughput [--threads N] [--minority P] [--majority M]
//                    [--score-rows S] [--n-estimators E] [--out FILE]
//                    [--no-obs]
//
// --no-obs disables the obs instrumentation (spans + fit gauges) for
// the run, which is how docs/performance.md measures its overhead:
// run once with and once without and compare fit throughput.
//
// Writes the JSON report to stdout and to --out (default
// BENCH_train.json in the working directory).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "spe/classifiers/bagging.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/parallel.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/kernels/flat_forest.h"
#include "spe/obs/metrics.h"
#include "spe/obs/trace.h"
#include "spe/data/synthetic.h"
#include "spe/io/model_io.h"

namespace {

long FlagValue(int argc, char** argv, const char* name, long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atol(argv[i + 1]);
  }
  return fallback;
}

const char* StringFlag(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunResult {
  double fit_s = 0.0;
  double score_s = 0.0;
  std::vector<double> probs;  // batch predictions on the score set
  std::string artifact;       // SaveClassifier text
  const char* kernel = "reference";  // inference path PredictProba used
};

// Fits a fresh model, times fit + one batch PredictProba over `score`,
// and captures the evidence needed for the bit-identity comparison.
template <typename MakeModel>
RunResult RunOnce(MakeModel&& make_model, const spe::Dataset& train,
                  const spe::Dataset& score) {
  RunResult result;
  auto model = make_model();
  const auto fit_start = std::chrono::steady_clock::now();
  model->Fit(train);
  result.fit_s = Seconds(fit_start);
  const auto score_start = std::chrono::steady_clock::now();
  result.probs = model->PredictProba(score);
  result.score_s = Seconds(score_start);
  result.kernel = spe::kernels::ActiveKernel(*model);
  std::ostringstream os;
  spe::SaveClassifier(*model, os);
  result.artifact = os.str();
  return result;
}

bool BitIdentical(const RunResult& a, const RunResult& b) {
  if (a.artifact != b.artifact) return false;
  if (a.probs.size() != b.probs.size()) return false;
  return a.probs.empty() ||
         std::memcmp(a.probs.data(), b.probs.data(),
                     a.probs.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The default is read before any SetNumThreads below overrides it.
  const long threads = FlagValue(argc, argv, "--threads",
                                 static_cast<long>(spe::NumThreads()));
  const long minority = FlagValue(argc, argv, "--minority", 2'000);
  const long majority = FlagValue(argc, argv, "--majority", 40'000);
  const long score_rows = FlagValue(argc, argv, "--score-rows", 200'000);
  const long n_estimators = FlagValue(argc, argv, "--n-estimators", 10);
  const std::string out_path =
      StringFlag(argc, argv, "--out", "BENCH_train.json");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-obs") == 0) spe::obs::SetEnabled(false);
  }

  // Paper §VI-A checkerboard geometry, enlarged so fit takes long
  // enough to time; a separate large batch exercises scoring.
  spe::CheckerboardConfig train_config;
  train_config.num_minority = static_cast<std::size_t>(minority);
  train_config.num_majority = static_cast<std::size_t>(majority);
  spe::Rng rng(42);
  const spe::Dataset train = spe::MakeCheckerboard(train_config, rng);
  spe::CheckerboardConfig score_config;
  score_config.num_minority = static_cast<std::size_t>(score_rows / 11);
  score_config.num_majority =
      static_cast<std::size_t>(score_rows) - score_config.num_minority;
  const spe::Dataset score = spe::MakeCheckerboard(score_config, rng);
  std::fprintf(stderr, "train=%s score=%s threads=1 vs %ld\n",
               train.Summary().c_str(), score.Summary().c_str(), threads);

  struct Workload {
    const char* name;
    std::unique_ptr<spe::Classifier> (*make)(std::size_t);
  };
  const Workload workloads[] = {
      {"spe",
       [](std::size_t n) -> std::unique_ptr<spe::Classifier> {
         spe::SelfPacedEnsembleConfig config;
         config.n_estimators = n;
         config.seed = 7;
         return std::make_unique<spe::SelfPacedEnsemble>(
             config, std::make_unique<spe::DecisionTree>(
                         spe::DecisionTreeConfig{}));
       }},
      {"bagging",
       [](std::size_t n) -> std::unique_ptr<spe::Classifier> {
         spe::BaggingConfig config;
         config.n_estimators = n;
         config.seed = 7;
         return std::make_unique<spe::Bagging>(config);
       }},
      {"random_forest",
       [](std::size_t n) -> std::unique_ptr<spe::Classifier> {
         spe::RandomForestConfig config;
         config.n_estimators = n;
         config.seed = 7;
         return std::make_unique<spe::RandomForest>(config);
       }},
  };

  bool all_identical = true;
  std::ostringstream json;
  json << "{\"bench\":\"train_throughput\",\"threads\":" << threads
       << ",\"train_rows\":" << train.num_rows()
       << ",\"score_rows\":" << score.num_rows()
       << ",\"n_estimators\":" << n_estimators << ",\"workloads\":[";
  const double train_rows = static_cast<double>(train.num_rows());
  const double batch_rows = static_cast<double>(score.num_rows());
  bool first = true;
  for (const Workload& w : workloads) {
    const auto make = [&] {
      return w.make(static_cast<std::size_t>(n_estimators));
    };
    spe::SetNumThreads(1);
    const RunResult serial = RunOnce(make, train, score);
    spe::SetNumThreads(static_cast<std::size_t>(threads));
    const RunResult parallel = RunOnce(make, train, score);
    spe::SetNumThreads(0);  // back to SPE_THREADS / hardware default

    const bool identical = BitIdentical(serial, parallel);
    all_identical = all_identical && identical;
    std::fprintf(stderr,
                 "%-14s fit %.3fs -> %.3fs (%.2fx)  score %.3fs -> %.3fs "
                 "(%.2fx)  identical=%s\n",
                 w.name, serial.fit_s, parallel.fit_s,
                 parallel.fit_s > 0 ? serial.fit_s / parallel.fit_s : 0.0,
                 serial.score_s, parallel.score_s,
                 parallel.score_s > 0 ? serial.score_s / parallel.score_s : 0.0,
                 identical ? "yes" : "NO");
    json << (first ? "" : ",") << "{\"name\":\"" << w.name << "\""
         << ",\"kernel\":\"" << parallel.kernel << "\""
         << ",\"fit_rows_per_sec_1t\":"
         << (serial.fit_s > 0 ? train_rows / serial.fit_s : 0.0)
         << ",\"fit_rows_per_sec_nt\":"
         << (parallel.fit_s > 0 ? train_rows / parallel.fit_s : 0.0)
         << ",\"fit_speedup\":"
         << (parallel.fit_s > 0 ? serial.fit_s / parallel.fit_s : 0.0)
         << ",\"score_rows_per_sec_1t\":"
         << (serial.score_s > 0 ? batch_rows / serial.score_s : 0.0)
         << ",\"score_rows_per_sec_nt\":"
         << (parallel.score_s > 0 ? batch_rows / parallel.score_s : 0.0)
         << ",\"score_speedup\":"
         << (parallel.score_s > 0 ? serial.score_s / parallel.score_s : 0.0)
         << ",\"identical\":" << (identical ? "true" : "false") << "}";
    first = false;
  }
  // Checkpoint overhead: the same SPE fit with a checkpoint published
  // after every iteration vs none at all, in interleaved pairs. Each fit
  // takes tens of milliseconds at the default scale, so one draw is
  // mostly scheduler noise; the report gives both medians and the
  // per-pair overhead's median and quartiles. Every checkpointed
  // artifact must match its plain twin byte for byte.
  constexpr int kCheckpointPairs = 11;
  bool ckpt_identical = true;
  std::vector<double> plain_s;
  std::vector<double> checkpointed_s;
  std::vector<double> overhead_pct;
  {
    const auto make_spe = [&]() {
      return workloads[0].make(static_cast<std::size_t>(n_estimators));
    };
    spe::SetNumThreads(static_cast<std::size_t>(threads));
    const auto ckpt_dir = std::filesystem::temp_directory_path() /
                          "spe_bench_train_checkpoint";
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    spe::FitCheckpointOptions ckpt;
    ckpt.directory = ckpt_dir.string();
    ckpt.every = 1;
    const auto make_ckpt = [&]() {
      auto model = make_spe();
      static_cast<spe::SelfPacedEnsemble&>(*model).set_checkpoint_options(
          ckpt);
      return model;
    };
    for (int pair = 0; pair < kCheckpointPairs; ++pair) {
      const RunResult plain = RunOnce(make_spe, train, score);
      const RunResult checkpointed = RunOnce(make_ckpt, train, score);
      ckpt_identical = ckpt_identical && BitIdentical(plain, checkpointed);
      plain_s.push_back(plain.fit_s);
      checkpointed_s.push_back(checkpointed.fit_s);
      overhead_pct.push_back(
          (checkpointed.fit_s - plain.fit_s) / plain.fit_s * 100.0);
    }
    spe::SetNumThreads(0);
    std::filesystem::remove_all(ckpt_dir);
  }
  all_identical = all_identical && ckpt_identical;
  const double plain_median = spe::bench::Percentile(plain_s, 0.5);
  const double checkpointed_median =
      spe::bench::Percentile(checkpointed_s, 0.5);
  const double overhead_median = spe::bench::Percentile(overhead_pct, 0.5);
  const double overhead_q1 = spe::bench::Percentile(overhead_pct, 0.25);
  const double overhead_q3 = spe::bench::Percentile(overhead_pct, 0.75);
  std::fprintf(stderr,
               "checkpoint     fit %.3fs -> %.3fs median of %d pairs "
               "(every=1, overhead %.2f%% [%.2f%%, %.2f%%])  identical=%s\n",
               plain_median, checkpointed_median, kCheckpointPairs,
               overhead_median, overhead_q1, overhead_q3,
               ckpt_identical ? "yes" : "NO");
  json << "],\"checkpoint\":{\"every\":1,\"pairs\":" << kCheckpointPairs
       << ",\"fit_s_plain_median\":" << plain_median
       << ",\"fit_s_checkpointed_median\":" << checkpointed_median
       << ",\"overhead_pct_median\":" << overhead_median
       << ",\"overhead_pct_q1\":" << overhead_q1
       << ",\"overhead_pct_q3\":" << overhead_q3
       << ",\"identical\":" << (ckpt_identical ? "true" : "false") << "}";
  json << ",\"identical\":" << (all_identical ? "true" : "false")
       << ",\"obs_enabled\":" << (spe::obs::Enabled() ? "true" : "false")
       << ",\"spans\":" << spe::obs::SpanSummariesJson() << "}";

  const std::string report = json.str();
  std::printf("%s\n", report.c_str());
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", report.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  return all_identical ? 0 : 1;
}
