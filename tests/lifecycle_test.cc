// Tests for the spe::lifecycle layer: the versioned model registry, the
// atomic hot-swap contract (every batch scored entirely by one version,
// bit-identical to that version standalone), shadow scoring, and the
// hardness-distribution drift detector. Threaded — carries the
// `sanitize` ctest label so the swap-under-load test runs under
// SPE_SANITIZE=thread builds.

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/fault.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "spe/lifecycle/drift.h"
#include "spe/lifecycle/model_registry.h"
#include "spe/obs/metrics.h"
#include "spe/serve/batch_scorer.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using lifecycle::DriftConfig;
using lifecycle::HardnessDriftDetector;
using lifecycle::ModelRegistry;
using lifecycle::ModelVersion;

std::unique_ptr<SelfPacedEnsemble> TrainSpe(std::uint64_t seed) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 4;
  config.seed = seed;
  auto model = std::make_unique<SelfPacedEnsemble>(config);
  model->Fit(OverlappingBlobs(300, 40, seed));
  return model;
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

double GaugeValue(const char* name) {
  return obs::MetricsRegistry::Global().GetGauge(name).value();
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("spe_lifecycle_test_") + name))
      .string();
}

TEST(ModelRegistryTest, InstallAssignsMonotonicVersionsAndRoles) {
  ModelRegistry registry;
  auto a = registry.Install(TrainSpe(1), 2);
  auto b = registry.Install(TrainSpe(2), 2);
  auto c = registry.Install(TrainSpe(3), 2);
  EXPECT_EQ(a->version(), 1u);
  EXPECT_EQ(b->version(), 2u);
  EXPECT_EQ(c->version(), 3u);

  EXPECT_EQ(registry.active(), nullptr);
  EXPECT_EQ(registry.shadow(), nullptr);
  EXPECT_TRUE(registry.Activate(a).empty());
  ASSERT_NE(registry.active(), nullptr);
  EXPECT_EQ(registry.active()->version(), 1u);
  registry.SetShadow(b);
  EXPECT_EQ(registry.active(), a);
  EXPECT_EQ(registry.shadow(), b);

  // Activating b promotes it and leaves a with no role.
  EXPECT_TRUE(registry.Activate(b).empty());
  EXPECT_EQ(registry.active()->version(), 2u);
  EXPECT_EQ(registry.shadow(), b);
  registry.SetShadow(nullptr);
  EXPECT_EQ(registry.shadow(), nullptr);
}

TEST(ModelRegistryTest, ARetiredVersionIsFreedWithItsLastHolder) {
  ModelRegistry registry;
  std::weak_ptr<const ModelVersion> retired;
  {
    auto a = registry.Install(TrainSpe(1), 2);
    ASSERT_TRUE(registry.Activate(a).empty());
    retired = a;
  }
  // A batch in flight holds its snapshot of the active version while a
  // reload replaces it: the snapshot alone keeps the old version alive,
  // and releasing it frees the version.
  std::shared_ptr<const ModelVersion> batch_snapshot = registry.active();
  ASSERT_TRUE(registry.Activate(registry.Install(TrainSpe(2), 2)).empty());
  EXPECT_FALSE(retired.expired());
  batch_snapshot.reset();
  EXPECT_TRUE(retired.expired());

  // A version cleared from the shadow role is freed with it.
  std::weak_ptr<const ModelVersion> shadow;
  {
    auto s = registry.Install(TrainSpe(3), 2);
    registry.SetShadow(s);
    shadow = s;
  }
  EXPECT_FALSE(shadow.expired());
  registry.SetShadow(nullptr);
  EXPECT_TRUE(shadow.expired());

  // The registry keeps nothing of a version it refused.
  std::weak_ptr<const ModelVersion> refused;
  {
    auto wide = registry.Install(TrainSpe(4), 3);
    refused = wide;
    EXPECT_FALSE(registry.Activate(wide).empty());
  }
  EXPECT_TRUE(refused.expired());
}

TEST(ModelRegistryTest, ActivateRefusesFeatureWidthChange) {
  ModelRegistry registry;
  auto narrow = registry.Install(TrainSpe(1), 2);
  ASSERT_TRUE(registry.Activate(narrow).empty());
  // Declared three-wide: the registry must refuse to swap the input
  // schema out from under a live stream.
  auto wide = registry.Install(TrainSpe(2), 3);
  const std::string error = registry.Activate(wide);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("feature"), std::string::npos) << error;
  EXPECT_EQ(registry.active()->version(), narrow->version());
}

TEST(ModelRegistryTest, LoadFromFileRefusesBrokenArtifactsWithoutAborting) {
  ModelRegistry registry;
  const std::uint64_t loads_before = CounterValue("spe_lifecycle_loads_total");
  const std::uint64_t failures_before =
      CounterValue("spe_lifecycle_load_failures_total");

  auto missing = registry.LoadFromFile(TempPath("does_not_exist.model"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.error_class, frame::ErrorClass::kIo);
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos)
      << missing.error;

  const std::string garbage_path = TempPath("garbage.model");
  {
    std::ofstream os(garbage_path);
    os << "definitely not a model artifact\n";
  }
  auto garbage = registry.LoadFromFile(garbage_path);
  EXPECT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.error_class, frame::ErrorClass::kBadMagic);
  EXPECT_FALSE(garbage.error.empty());

  // A well-formed bundle whose header claims ~1 PB of payload: refused
  // as truncated, not answered by an allocation failure.
  std::ostringstream bundle;
  SaveModelBundle(*TrainSpe(1), 2, bundle);
  std::string lie = bundle.str();
  const std::size_t at = lie.find("payload_bytes ") + 14;
  lie.replace(at, lie.find(' ', at) - at, "999999999999999");
  const std::string lying_path = TempPath("lying.model");
  {
    std::ofstream os(lying_path, std::ios::binary);
    os << lie;
  }
  auto lying = registry.LoadFromFile(lying_path);
  EXPECT_FALSE(lying.ok());
  EXPECT_EQ(lying.error_class, frame::ErrorClass::kTruncated);
  EXPECT_NE(lying.error.find("truncated"), std::string::npos) << lying.error;

  // The same bundle with a histogram line claiming ~10^18 bins: refused
  // as a malformed header before anything is sized from the claim.
  std::string hist_lie = bundle.str();
  const std::size_t k = hist_lie.find("\nhardness_histogram ") + 20;
  hist_lie.replace(k, hist_lie.find(' ', k) - k, "999999999999999999");
  const std::string hist_lie_path = TempPath("hist_lie.model");
  {
    std::ofstream os(hist_lie_path, std::ios::binary);
    os << hist_lie;
  }
  auto hist = registry.LoadFromFile(hist_lie_path);
  EXPECT_FALSE(hist.ok());
  EXPECT_EQ(hist.error_class, frame::ErrorClass::kMalformed);
  EXPECT_NE(hist.error.find("malformed bundle header"), std::string::npos)
      << hist.error;

  // A refused load must count as a failure, not a load.
  EXPECT_EQ(CounterValue("spe_lifecycle_loads_total"), loads_before);
  EXPECT_EQ(CounterValue("spe_lifecycle_load_failures_total"),
            failures_before + 4);
  std::filesystem::remove(garbage_path);
  std::filesystem::remove(lying_path);
  std::filesystem::remove(hist_lie_path);
}

TEST(ModelRegistryTest, LoadFromFileReadsACandidateOnce) {
  // A candidate that changes between reads — a FIFO that yields one good
  // bundle and then EOF to any later reader, like a `cp` over the path
  // mid-reload — must load from one read of the bytes. Reading it twice
  // (validate, then load) saw the EOF the second time and aborted.
  std::ostringstream bundle;
  SaveModelBundle(*TrainSpe(2), 2, bundle);
  const std::string bytes = bundle.str();
  const std::string fifo = TempPath("candidate.fifo");
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    // A non-blocking open for writing fails until a reader is there, so
    // polling it never blocks past `done`.
    const auto open_writer = [&] {
      return ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    };
    int fd = -1;
    while (!done && (fd = open_writer()) < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) return;
    ::fcntl(fd, F_SETFL, 0);  // blocking writes
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    // Every later reader gets EOF: open, then close at once.
    while (!done) {
      if ((fd = open_writer()) >= 0) ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ModelRegistry registry;
  auto loaded = registry.LoadFromFile(fifo);
  done = true;
  writer.join();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.version->num_features(), 2u);
  std::filesystem::remove(fifo);
}

TEST(ModelRegistryTest, FlakyArtifactReadEventuallyLoadsAndActivates) {
  // A healthy artifact behind flaky I/O (injected transient read
  // faults) must load through the retry policy and activate — the
  // difference between a mount blip and a lost deploy.
  const std::string path = TempPath("flaky.model");
  {
    auto model = TrainSpe(11);
    SaveModelBundleToFile(*model, 2, path);
  }
  ModelRegistry registry;
  RetryPolicy fast;
  fast.max_attempts = 8;
  fast.initial_backoff_ms = 1;
  registry.set_load_retry(fast);

  // Certain failure first: every attempt faults, the retry budget runs
  // out, and the load is refused without counting as a load.
  const std::uint64_t loads_before = CounterValue("spe_lifecycle_loads_total");
  FaultConfig faults;
  faults.artifact_read_fail_rate = 1.0;
  Faults().Configure(faults);
  auto refused = registry.LoadFromFile(path);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.error.find("injected fault"), std::string::npos)
      << refused.error;
  EXPECT_EQ(CounterValue("spe_lifecycle_loads_total"), loads_before);

  // Flaky-then-healthy: at a 50% deterministic fault rate the retries
  // get through well inside 8 attempts, and the loaded version
  // activates normally.
  faults.artifact_read_fail_rate = 0.5;
  faults.seed = 3;
  Faults().Configure(faults);
  auto loaded = registry.LoadFromFile(path);
  Faults().Reset();
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_TRUE(registry.Activate(loaded.version).empty());
  EXPECT_EQ(registry.active()->version(), loaded.version->version());
  std::filesystem::remove(path);
}

TEST(ModelRegistryTest, LoadFromFileCarriesVersionAndDriftBaseline) {
  const std::string path = TempPath("v3.model");
  {
    auto model = TrainSpe(5);
    ASSERT_NE(model->training_hardness(), nullptr);
    SaveModelBundleToFile(*model, 2, path);
  }
  ModelRegistry registry;
  auto loaded = registry.LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.version->version(), 1u);
  EXPECT_EQ(loaded.version->num_features(), 2u);
  EXPECT_STREQ(loaded.version->kernel(), "flat");
  // The v3 histogram becomes a live drift baseline on the version.
  ASSERT_NE(loaded.version->drift(), nullptr);
  EXPECT_FALSE(loaded.version->drift()->baseline().empty());
  std::filesystem::remove(path);
}

TEST(LifecycleScorerTest, HotSwapIsBitIdenticalPerVersion) {
  auto registry = std::make_shared<ModelRegistry>();
  auto a = registry->Install(TrainSpe(11), 2);
  auto b = registry->Install(TrainSpe(12), 2);
  ASSERT_TRUE(registry->Activate(a).empty());

  const Dataset test = OverlappingBlobs(40, 10, 99);
  const std::vector<double> expect_a = a->model().PredictProba(test);
  const std::vector<double> expect_b = b->model().PredictProba(test);

  BatchScorerConfig config;
  config.num_workers = 2;
  BatchScorer scorer(registry, config);
  const std::vector<double> before = scorer.ScoreBatch(test);
  ASSERT_EQ(before.size(), expect_a.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], expect_a[i]) << "row " << i << " pre-swap";
  }

  ASSERT_TRUE(registry->Activate(b).empty());
  const std::vector<double> after = scorer.ScoreBatch(test);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], expect_b[i]) << "row " << i << " post-swap";
  }
  EXPECT_EQ(GaugeValue("spe_lifecycle_active_version"),
            static_cast<double>(b->version()));
}

TEST(LifecycleScorerTest, SwapUnderConcurrentLoadDropsNothing) {
  auto registry = std::make_shared<ModelRegistry>();
  auto a = registry->Install(TrainSpe(21), 2);
  auto b = registry->Install(TrainSpe(22), 2);
  ASSERT_TRUE(registry->Activate(a).empty());

  const std::vector<double> row = {1.0, 0.5};
  Dataset one(2);
  one.AddRow(row, 0);
  const double proba_a = a->model().PredictProba(one)[0];
  const double proba_b = b->model().PredictProba(one)[0];
  ASSERT_NE(proba_a, proba_b) << "seeds produced identical models";

  BatchScorerConfig config;
  config.num_workers = 2;
  config.max_batch_delay_us = 0;
  BatchScorer scorer(registry, config);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scored{0};
  std::atomic<std::uint64_t> alien{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const double p = scorer.Score(row);
        // Every response must be one of the two versions' exact
        // outputs — a swap mid-batch would blend them.
        if (p != proba_a && p != proba_b) {
          alien.fetch_add(1, std::memory_order_relaxed);
        }
        scored.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int swap = 0; swap < 50; ++swap) {
    ASSERT_TRUE(registry->Activate(swap % 2 == 0 ? b : a).empty());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(alien.load(), 0u);
  EXPECT_GT(scored.load(), 0u);
}

TEST(LifecycleScorerTest, ShadowScoringPopulatesDiffCounters) {
  auto registry = std::make_shared<ModelRegistry>();
  auto a = registry->Install(TrainSpe(31), 2);
  auto b = registry->Install(TrainSpe(32), 2);
  ASSERT_TRUE(registry->Activate(a).empty());
  registry->SetShadow(b);

  const std::uint64_t batches_before =
      CounterValue("spe_lifecycle_shadow_batches_total");
  const std::uint64_t rows_before =
      CounterValue("spe_lifecycle_shadow_rows_total");

  BatchScorerConfig config;
  config.num_workers = 1;
  config.shadow_every = 1;  // shadow every batch — deterministic counts
  BatchScorer scorer(registry, config);
  const Dataset rows = OverlappingBlobs(30, 10, 77);
  scorer.ScoreBatch(rows);
  scorer.Shutdown();

  EXPECT_GT(CounterValue("spe_lifecycle_shadow_batches_total"),
            batches_before);
  EXPECT_EQ(CounterValue("spe_lifecycle_shadow_rows_total"),
            rows_before + rows.num_rows());
  EXPECT_EQ(GaugeValue("spe_lifecycle_shadow_version"),
            static_cast<double>(b->version()));
}

TEST(DriftDetectorTest, SilentOnTrainingDistribution) {
  auto model = TrainSpe(41);
  ASSERT_NE(model->training_hardness(), nullptr);
  DriftConfig config;
  config.min_samples = 100;
  HardnessDriftDetector detector(*model->training_hardness(), config);

  // Live traffic that looks exactly like training: the model's own
  // probabilities on the majority rows it was profiled on (for AE
  // hardness with label 0, hardness == probability).
  const Dataset train = OverlappingBlobs(300, 40, 41);
  const std::vector<double> probs = model->PredictProba(train);
  std::vector<double> majority_probs;
  for (std::size_t i = 0; i < train.num_rows(); ++i) {
    if (train.Label(i) == 0) majority_probs.push_back(probs[i]);
  }
  ASSERT_GE(majority_probs.size(), config.min_samples);
  detector.ObserveBatch(majority_probs);

  EXPECT_GE(detector.live_total(), config.min_samples);
  EXPECT_LT(detector.Psi(), config.psi_threshold);
  EXPECT_FALSE(detector.Alerting());
}

TEST(DriftDetectorTest, FiresOnShiftedDistributionAfterMinSamples) {
  auto model = TrainSpe(42);
  ASSERT_NE(model->training_hardness(), nullptr);
  DriftConfig config;
  config.min_samples = 100;
  HardnessDriftDetector detector(*model->training_hardness(), config);
  const double hard = detector.baseline().max;  // lands in the top bin

  // Below min_samples no verdict is rendered, however extreme the data.
  for (std::uint64_t i = 0; i + 1 < config.min_samples; ++i) {
    detector.Observe(hard);
  }
  EXPECT_FALSE(detector.Alerting());

  const std::uint64_t alerts_before =
      CounterValue("spe_lifecycle_drift_alerts_total");
  for (int i = 0; i < 200; ++i) detector.Observe(hard);
  EXPECT_GT(detector.Psi(), config.psi_threshold);
  EXPECT_TRUE(detector.Alerting());

  // Publish increments the alert counter on the 0 -> 1 edge only.
  detector.Publish();
  detector.Publish();
  EXPECT_EQ(CounterValue("spe_lifecycle_drift_alerts_total"),
            alerts_before + 1);
  EXPECT_EQ(GaugeValue("spe_lifecycle_drift_alert"), 1.0);
  EXPECT_GT(GaugeValue("spe_lifecycle_drift_psi"), config.psi_threshold);
}

TEST(DriftDetectorTest, ScoringThroughRegistryFeedsActiveVersionsDetector) {
  const std::string path = TempPath("drift_feed.model");
  {
    auto model = TrainSpe(43);
    SaveModelBundleToFile(*model, 2, path);
  }
  DriftConfig drift;
  drift.min_samples = 8;
  auto registry = std::make_shared<ModelRegistry>(drift);
  auto loaded = registry->LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_TRUE(registry->Activate(loaded.version).empty());
  ASSERT_NE(loaded.version->drift(), nullptr);

  BatchScorerConfig config;
  config.num_workers = 1;
  BatchScorer scorer(registry, config);
  scorer.ScoreBatch(OverlappingBlobs(20, 5, 44));
  scorer.Shutdown();
  EXPECT_EQ(loaded.version->drift()->live_total(), 25u);
  std::filesystem::remove(path);
}

TEST(DriftDetectorTest, GaugesClearWhenAVersionWithoutBaselineServes) {
  const std::string path = TempPath("drift_clear.model");
  {
    auto model = TrainSpe(45);
    SaveModelBundleToFile(*model, 2, path);
  }
  DriftConfig drift;
  drift.min_samples = 8;
  auto registry = std::make_shared<ModelRegistry>(drift);
  auto loaded = registry->LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_TRUE(registry->Activate(loaded.version).empty());
  ASSERT_NE(loaded.version->drift(), nullptr);

  BatchScorerConfig config;
  config.num_workers = 1;
  BatchScorer scorer(registry, config);
  // Minority-only traffic scores far harder than the majority rows the
  // baseline was profiled on.
  scorer.ScoreBatch(OverlappingBlobs(0, 40, 46));
  ASSERT_EQ(GaugeValue("spe_lifecycle_drift_alert"), 1.0);
  ASSERT_GT(GaugeValue("spe_lifecycle_drift_observed"), 0.0);
  ASSERT_GT(GaugeValue("spe_lifecycle_drift_psi"), 0.0);

  // A hot reload to a model without a baseline: the gauges must stop
  // describing the version that no longer serves.
  const Dataset train = OverlappingBlobs(300, 40, 47);
  auto tree = std::make_unique<DecisionTree>();
  tree->Fit(train);
  ASSERT_TRUE(registry->Activate(registry->Install(std::move(tree), 2)).empty());
  scorer.Score({0.5, 0.5});
  EXPECT_EQ(GaugeValue("spe_lifecycle_drift_alert"), 0.0);
  EXPECT_EQ(GaugeValue("spe_lifecycle_drift_observed"), 0.0);
  EXPECT_EQ(GaugeValue("spe_lifecycle_drift_psi"), 0.0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace spe
