// reload_latency — hot-reload cost and zero-disruption check for the
// lifecycle layer (BENCH_reload.json).
//
// Trains two SPE bundles, saves them as v3 artifacts, then hammers a
// BatchScorer from client threads while the main thread hot-swaps the
// active version back and forth through the ModelRegistry. Reports the
// off-thread reload cost (read + decode + kernel compile) and the
// activation swap cost separately, plus the two numbers that define the
// contract: dropped_requests (scoring errors during churn) and
// blended_responses (a response matching neither version's standalone
// output — a mid-batch swap would produce one). Both must be 0; the
// process exits nonzero otherwise.
//
//   reload_latency [--reloads N] [--clients C] [--out FILE]
//
// Writes the JSON report to stdout and to --out (default
// BENCH_reload.json in the working directory).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/synthetic.h"
#include "spe/io/model_io.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/serve/batch_scorer.h"

namespace {

using spe::bench::Percentile;

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

double ElapsedMs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string TrainAndSave(std::uint64_t seed, const spe::Dataset& train,
                         const char* name) {
  spe::SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  config.seed = seed;
  spe::SelfPacedEnsemble model(config);
  model.Fit(train);
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  spe::SaveModelBundleToFile(model, train.num_features(), path);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const long reloads = FlagValue(argc, argv, "--reloads", 40);
  const long clients = FlagValue(argc, argv, "--clients", 2);
  const std::string out_path =
      StringFlag(argc, argv, "--out", "BENCH_reload.json");

  spe::Rng rng(42);
  spe::CheckerboardConfig train_config;
  train_config.num_minority = 500;
  train_config.num_majority = 5000;
  const spe::Dataset train = spe::MakeCheckerboard(train_config, rng);

  std::fprintf(stderr, "training two SPE10 bundles on %s\n",
               train.Summary().c_str());
  const std::string path_a =
      TrainAndSave(1, train, "spe_bench_reload_a.model");
  const std::string path_b =
      TrainAndSave(2, train, "spe_bench_reload_b.model");

  auto registry = std::make_shared<spe::lifecycle::ModelRegistry>();
  auto first = registry->LoadFromFile(path_a);
  if (!first.ok()) {
    std::fprintf(stderr, "load failed: %s\n", first.error.c_str());
    return 1;
  }
  registry->Activate(first.version);

  // One probe row; the two versions' standalone outputs on it are the
  // only legal responses during the churn.
  const std::vector<double> row = {0.31, -0.62};
  spe::Dataset one(train.num_features());
  one.AddRow(row, 0);
  const double proba_a = first.version->model().PredictProba(one)[0];
  auto second = registry->LoadFromFile(path_b);
  if (!second.ok()) {
    std::fprintf(stderr, "load failed: %s\n", second.error.c_str());
    return 1;
  }
  const double proba_b = second.version->model().PredictProba(one)[0];

  spe::BatchScorerConfig config;
  config.num_workers = 2;
  config.max_batch_delay_us = 0;
  spe::BatchScorer scorer(registry, config);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> blended{0};
  std::vector<std::thread> pool;
  for (long c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const double p = scorer.Score(row);
          if (p != proba_a && p != proba_b) {
            blended.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const std::exception&) {
          dropped.fetch_add(1, std::memory_order_relaxed);
        }
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<double> load_ms;
  std::vector<double> activate_us;
  load_ms.reserve(static_cast<std::size_t>(reloads));
  activate_us.reserve(static_cast<std::size_t>(reloads));
  const auto bench_t0 = std::chrono::steady_clock::now();
  for (long r = 0; r < reloads; ++r) {
    const std::string& path = (r % 2 == 0) ? path_b : path_a;
    const auto t0 = std::chrono::steady_clock::now();
    auto loaded = registry->LoadFromFile(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "reload %ld failed: %s\n", r,
                   loaded.error.c_str());
      return 1;
    }
    load_ms.push_back(ElapsedMs(t0));
    const auto t1 = std::chrono::steady_clock::now();
    const std::string error = registry->Activate(loaded.version);
    activate_us.push_back(ElapsedMs(t1) * 1000.0);
    if (!error.empty()) {
      std::fprintf(stderr, "activate %ld refused: %s\n", r, error.c_str());
      return 1;
    }
  }
  const double churn_s = ElapsedMs(bench_t0) / 1000.0;
  stop.store(true);
  for (std::thread& t : pool) t.join();
  scorer.Shutdown();

  const double rate =
      churn_s > 0 ? static_cast<double>(requests.load()) / churn_s : 0.0;
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\":\"reload_latency\",\"reloads\":%ld,\"clients\":%ld,"
      "\"kernel\":\"%s\","
      "\"load_ms_p50\":%.2f,\"load_ms_p95\":%.2f,\"load_ms_max\":%.2f,"
      "\"activate_us_p50\":%.1f,\"activate_us_max\":%.1f,"
      "\"requests_total\":%llu,\"requests_per_sec\":%.0f,"
      "\"dropped_requests\":%llu,\"blended_responses\":%llu}",
      reloads, clients, registry->active()->kernel(),
      Percentile(load_ms, 0.5), Percentile(load_ms, 0.95),
      Percentile(load_ms, 1.0), Percentile(activate_us, 0.5),
      Percentile(activate_us, 1.0),
      static_cast<unsigned long long>(requests.load()), rate,
      static_cast<unsigned long long>(dropped.load()),
      static_cast<unsigned long long>(blended.load()));
  std::printf("%s\n", buf);
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", buf);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
  return (dropped.load() == 0 && blended.load() == 0) ? 0 : 1;
}
