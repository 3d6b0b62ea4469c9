#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/common/mpmc_queue.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/data/synthetic.h"
#include "spe/io/model_io.h"
#include "spe/serve/batch_scorer.h"
#include "spe/serve/line_protocol.h"
#include "spe/serve/server_stats.h"
#include "submit_future.h"

#if defined(__SANITIZE_THREAD__)
// libstdc++ is not TSan-instrumented in this toolchain, so the atomic
// refcount inside std::exception_ptr (libsupc++/eh_ptr.cc) is invisible
// to TSan. A worker thread releasing its last reference to an exception
// stored in a promise — after a client thread caught and inspected it
// through the future — then reports as a race on the exception object,
// even though the refcount fully orders the two accesses.
extern "C" const char* __tsan_default_suppressions() {
  return "race:std::__exception_ptr::exception_ptr::_M_release\n";
}
#endif

namespace spe {
namespace {

Dataset SmallCheckerboard(std::uint64_t seed, std::size_t minority = 150,
                          std::size_t majority = 1500) {
  CheckerboardConfig config;
  config.num_minority = minority;
  config.num_majority = majority;
  Rng rng(seed);
  return MakeCheckerboard(config, rng);
}

std::unique_ptr<Classifier> TrainedSpe(const Dataset& train) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  config.seed = 7;
  auto model = std::make_unique<SelfPacedEnsemble>(
      config, std::make_unique<DecisionTree>(DecisionTreeConfig{}));
  model->Fit(train);
  return model;
}

// ---------------------------------------------------------------- queue

TEST(BoundedQueueTest, PopBatchRespectsMaxItems) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(batch, 4, std::chrono::microseconds(0)), 4u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6u);
}

TEST(BoundedQueueTest, TryPushShedsWhenFull) {
  BoundedQueue<int> q(2);
  for (int i = 1; i <= 2; ++i) EXPECT_TRUE(q.TryPush(i));
  int refused = 3;
  EXPECT_FALSE(q.TryPush(refused));
  std::vector<int> batch;
  q.PopBatch(batch, 8, std::chrono::microseconds(0));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BoundedQueueTest, RefusedPushLeavesTheItemIntact) {
  // Both pushes move from the item only on success, so a move-only
  // payload the queue refuses stays with the caller.
  BoundedQueue<std::unique_ptr<int>> q(1);
  auto first = std::make_unique<int>(1);
  ASSERT_TRUE(q.Push(first));
  EXPECT_EQ(first, nullptr);
  auto shed = std::make_unique<int>(2);
  EXPECT_FALSE(q.TryPush(shed));  // full
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(*shed, 2);
  q.Close();
  EXPECT_FALSE(q.Push(shed));  // closed
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(*shed, 2);
}

TEST(BoundedQueueTest, CloseDrainsRemainingItems) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 2; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  int late = 3;
  EXPECT_FALSE(q.Push(late));
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(batch, 1, std::chrono::microseconds(0)), 1u);
  EXPECT_EQ(q.PopBatch(batch, 8, std::chrono::microseconds(0)), 1u);
  EXPECT_EQ(q.PopBatch(batch, 8, std::chrono::microseconds(0)), 0u);
}

TEST(BoundedQueueTest, BlockedPushWakesWhenConsumerDrains) {
  BoundedQueue<int> q(1);
  int first = 1;
  ASSERT_TRUE(q.Push(first));
  std::thread producer([&] {
    int second = 2;
    EXPECT_TRUE(q.Push(second));
  });
  std::vector<int> batch;
  // Eventually both items flow through; the producer unblocks.
  std::size_t seen = 0;
  while (seen < 2) {
    seen += q.PopBatch(batch, 1, std::chrono::microseconds(100));
  }
  producer.join();
}

// ------------------------------------------------------------- scoring

TEST(BatchScorerTest, ServedBitIdenticalToDirectPredictProba) {
  const Dataset train = SmallCheckerboard(1);
  const Dataset test = SmallCheckerboard(2, 100, 400);
  const auto trained = TrainedSpe(train);

  // Round-trip the trained ensemble through the persistence layer, the
  // way a real deployment ships a model to the server.
  std::stringstream artifact;
  SaveModelBundle(*trained, train.num_features(), artifact);
  ModelBundle bundle = LoadModelBundle(artifact);
  ASSERT_EQ(bundle.num_features, train.num_features());

  const std::vector<double> direct = bundle.model->PredictProba(test);

  BatchScorerConfig config;
  config.max_batch_size = 32;  // force many batch boundaries
  config.max_batch_delay_us = 50;
  BatchScorer scorer(std::move(bundle.model), bundle.num_features, config);
  const std::vector<double> served = scorer.ScoreBatch(test);

  ASSERT_EQ(served.size(), direct.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    // Bit-identical, not approximately equal: micro-batch boundaries
    // must be invisible in the output.
    EXPECT_EQ(std::memcmp(&served[i], &direct[i], sizeof(double)), 0)
        << "row " << i << ": " << served[i] << " vs " << direct[i];
  }
  EXPECT_EQ(scorer.stats().rows(), test.num_rows());
}

TEST(BatchScorerTest, MultiThreadedProducersRandomizedDelays) {
  const Dataset train = SmallCheckerboard(3);
  const Dataset test = SmallCheckerboard(4, 60, 240);
  const auto model = TrainedSpe(train);
  const std::vector<double> expected = model->PredictProba(test);

  BatchScorerConfig config;
  config.max_batch_size = 16;
  config.max_batch_delay_us = 300;
  config.num_workers = 4;
  config.queue_capacity = 64;  // small: exercises producer blocking
  BatchScorer scorer(TrainedSpe(train), train.num_features(), config);

  constexpr int kProducers = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(static_cast<unsigned>(p));
      std::uniform_int_distribution<int> jitter_us(0, 200);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<ScoreResult>> futures;
        std::vector<std::size_t> rows;
        for (std::size_t i = static_cast<std::size_t>(p); i < test.num_rows();
             i += kProducers) {
          std::vector<double> row(test.num_features());
          test.CopyRowTo(i, row);
          futures.push_back(testing::SubmitFuture(scorer, std::move(row)));
          rows.push_back(i);
          if (jitter_us(rng) < 20) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(jitter_us(rng)));
          }
        }
        for (std::size_t k = 0; k < futures.size(); ++k) {
          if (futures[k].get().proba != expected[rows[k]]) ++mismatches;
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const ServerStats& s = scorer.stats();
  // Each round, the producers partition the test set exactly once.
  EXPECT_EQ(s.rows(), static_cast<std::uint64_t>(kRounds) * test.num_rows());
  EXPECT_GT(s.batches(), 0u);
  EXPECT_GE(s.batch_rows(), s.batches());  // mean batch size >= 1
  EXPECT_EQ(s.shed(), 0u);
}

TEST(BatchScorerTest, ShutdownDrainsEveryAcceptedRequest) {
  const Dataset train = SmallCheckerboard(5);
  const Dataset test = SmallCheckerboard(6, 40, 160);

  BatchScorerConfig config;
  config.max_batch_size = 8;
  // Long fill deadline: requests sit in partial batches when Shutdown
  // lands, which is exactly the drain path under test.
  config.max_batch_delay_us = 50'000;
  config.num_workers = 2;
  BatchScorer scorer(TrainedSpe(train), train.num_features(), config);

  std::vector<std::future<ScoreResult>> futures;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    std::vector<double> row(test.num_features());
    test.CopyRowTo(i, row);
    futures.push_back(testing::SubmitFuture(scorer, std::move(row)));
  }
  scorer.Shutdown();

  for (auto& f : futures) {
    const double p = f.get().proba;  // must not throw: accepted => completed
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_EQ(scorer.stats().rows(), test.num_rows());

  // After shutdown, new submissions are refused through the completion.
  auto rejected = testing::SubmitFuture(
      scorer, std::vector<double>(test.num_features(), 0.0));
  EXPECT_THROW(rejected.get(), ScorerOverloaded);
}

// A model slow enough to keep the queue backed up, for shedding tests.
class SlowConstantModel final : public Classifier {
 public:
  void Fit(const DatasetView&) override {}
  double PredictRow(std::span<const double>) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return 0.25;
  }
  std::vector<double> PredictProba(const DatasetView& data) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::vector<double>(data.num_rows(), 0.25);
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<SlowConstantModel>();
  }
  std::string Name() const override { return "SlowConstant"; }
};

TEST(BatchScorerTest, ShedPolicyRejectsWhenQueueFull) {
  BatchScorerConfig config;
  config.max_batch_size = 1;
  config.max_batch_delay_us = 0;
  config.num_workers = 1;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::kShed;
  BatchScorer scorer(std::make_unique<SlowConstantModel>(), 2, config);

  std::vector<std::future<ScoreResult>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(testing::SubmitFuture(scorer, {0.0, 1.0}));
  }
  int ok = 0;
  int shed = 0;
  for (auto& f : futures) {
    try {
      EXPECT_EQ(f.get().proba, 0.25);
      ++ok;
    } catch (const ScorerOverloaded&) {
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(shed), scorer.stats().shed());
}

// The synchronous entry points ride the callback channel too: a model
// error and a refusal after Shutdown must still surface as exceptions.
class ThrowingModel final : public Classifier {
 public:
  void Fit(const DatasetView&) override {}
  double PredictRow(std::span<const double>) const override {
    throw std::runtime_error("model exploded");
  }
  std::vector<double> PredictProba(const DatasetView&) const override {
    throw std::runtime_error("model exploded");
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<ThrowingModel>();
  }
  std::string Name() const override { return "Throwing"; }
};

TEST(BatchScorerTest, SynchronousScoringRethrowsCompletionErrors) {
  BatchScorerConfig config;
  config.num_workers = 1;
  BatchScorer scorer(std::make_unique<ThrowingModel>(), 2, config);
  EXPECT_THROW(scorer.Score({1.0, 2.0}), std::runtime_error);
  Dataset rows(2);
  rows.AddRow(std::vector<double>{1.0, 2.0}, 0);
  rows.AddRow(std::vector<double>{3.0, 4.0}, 0);
  EXPECT_THROW(scorer.ScoreBatch(rows), std::runtime_error);
  scorer.Shutdown();
  EXPECT_THROW(scorer.Score({1.0, 2.0}), ScorerOverloaded);
}

// ----------------------------------------------------- ensemble prefix

TEST(EnsemblePrefixTest, FullPrefixBitIdenticalToPredictProba) {
  const Dataset train = SmallCheckerboard(11);
  const Dataset test = SmallCheckerboard(12, 50, 200);
  const auto model = TrainedSpe(train);
  const auto* voter = dynamic_cast<const PrefixVoter*>(model.get());
  ASSERT_NE(voter, nullptr);
  EXPECT_EQ(voter->NumPrefixMembers(), 5u);

  const std::vector<double> full = model->PredictProba(test);
  const std::vector<double> prefix_all = voter->PredictProbaPrefix(test, 5);
  // Overlong k clamps to the ensemble size instead of faulting.
  const std::vector<double> prefix_over = voter->PredictProbaPrefix(test, 99);
  ASSERT_EQ(prefix_all.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(std::memcmp(&prefix_all[i], &full[i], sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&prefix_over[i], &full[i], sizeof(double)), 0);
  }
  // A strict prefix is a different (coarser) hypothesis — it must not
  // silently collapse to the full ensemble on a non-trivial test set.
  const std::vector<double> prefix_one = voter->PredictProbaPrefix(test, 1);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (prefix_one[i] != full[i]) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

// ------------------------------------------------------------ deadlines

/// Counts PredictProba invocations so tests can prove an expired request
/// never reached the model.
class CountingConstantModel final : public Classifier {
 public:
  void Fit(const DatasetView&) override {}
  double PredictRow(std::span<const double>) const override {
    ++calls_;
    return 0.5;
  }
  std::vector<double> PredictProba(const DatasetView& data) const override {
    calls_ += data.num_rows();
    return std::vector<double>(data.num_rows(), 0.5);
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<CountingConstantModel>();
  }
  std::string Name() const override { return "CountingConstant"; }
  std::size_t calls() const { return calls_.load(); }

 private:
  mutable std::atomic<std::size_t> calls_{0};
};

TEST(BatchScorerTest, ExpiredDeadlineFailsFastWithoutScoring) {
  auto model = std::make_unique<CountingConstantModel>();
  const auto* counter = model.get();
  BatchScorerConfig config;
  config.num_workers = 1;
  BatchScorer scorer(std::move(model), 2, config);

  // Already-past deadline: no sleeps needed, the triage in the worker
  // must expire it no matter how fast the pop happens.
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto expired = testing::SubmitFuture(scorer, {1.0, 2.0}, past);
  try {
    (void)expired.get();
    FAIL() << "expired request was scored";
  } catch (const DeadlineExceeded& e) {
    // The wire-stable token clients match on.
    EXPECT_STREQ(e.what(), "DEADLINE_EXCEEDED");
  }
  EXPECT_EQ(counter->calls(), 0u) << "expired request reached the model";

  // A generous deadline and no deadline both still score normally.
  const auto future_deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(
      testing::SubmitFuture(scorer, {1.0, 2.0}, future_deadline).get().proba,
      0.5);
  EXPECT_EQ(testing::SubmitFuture(scorer, {1.0, 2.0}).get().proba, 0.5);
  EXPECT_EQ(counter->calls(), 2u);

  const ServerStats& s = scorer.stats();
  EXPECT_EQ(s.deadline_expired(), 1u);
  EXPECT_EQ(s.rows(), 2u);  // only scored rows count as served
}

// ---------------------------------------------------------- degradation

/// PrefixVoter fake with a controllable gate: a row whose first feature
/// is -1 blocks inside the model until Release(). Lets a test pin the
/// single worker while it builds up a known backlog, making watermark
/// transitions deterministic. Full scoring returns 0.75; prefix scoring
/// returns 0.1 * k — trivially distinguishable.
class GatePrefixModel final : public Classifier, public PrefixVoter {
 public:
  void Fit(const DatasetView&) override {}
  double PredictRow(std::span<const double> row) const override {
    MaybeBlock(row[0]);
    return 0.75;
  }
  std::vector<double> PredictProba(const DatasetView& data) const override {
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      MaybeBlock(data.At(i, 0));
    }
    return std::vector<double>(data.num_rows(), 0.75);
  }
  std::size_t NumPrefixMembers() const override { return 4; }
  std::vector<double> PredictProbaPrefix(const DatasetView& data,
                                         std::size_t k) const override {
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      MaybeBlock(data.At(i, 0));
    }
    return std::vector<double>(data.num_rows(),
                               0.1 * static_cast<double>(k));
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GatePrefixModel>();
  }
  std::string Name() const override { return "GatePrefix"; }

  void AwaitGateEntered() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  void MaybeBlock(double first_feature) const {
    if (first_feature != -1.0) return;
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool released_ = false;
};

TEST(BatchScorerTest, WatermarksEngageAndRestoreWithHysteresis) {
  auto model = std::make_unique<GatePrefixModel>();
  auto* gate = model.get();
  BatchScorerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 1;   // one pop per request: backlog is exact
  config.max_batch_delay_us = 0;
  config.queue_capacity = 64;
  config.degrade_high_watermark = 4;
  config.degrade_low_watermark = 0;  // restore only once fully drained
  config.degrade_prefix = 2;
  BatchScorer scorer(std::move(model), 2, config);

  // Pin the worker: it pops the gate row with an empty backlog (so the
  // gate row itself is scored at full fidelity) and blocks in the model.
  auto gated = testing::SubmitFuture(scorer, {-1.0, 0.0});
  gate->AwaitGateEntered();
  EXPECT_FALSE(scorer.degraded());

  // Build a backlog of 6 behind the pinned worker, then open the gate.
  std::vector<std::future<ScoreResult>> queued;
  for (int i = 0; i < 6; ++i) {
    queued.push_back(testing::SubmitFuture(scorer, {0.0, 0.0}));
  }
  gate->Release();

  const ScoreResult first = gated.get();
  EXPECT_EQ(first.proba, 0.75);
  EXPECT_FALSE(first.degraded);

  // Backlog after each subsequent pop: 5,4,3,2,1,0. The controller
  // engages at >= 4, holds through the hysteresis band (backlog > 0),
  // and restores at the final pop (backlog 0 <= low watermark). Every
  // degraded result must be bit-identical to PredictProbaPrefix(k=2).
  GatePrefixModel reference;
  Dataset one_row(2);
  one_row.AddRow(std::vector<double>{0.0, 0.0}, 0);
  const double expect_prefix = reference.PredictProbaPrefix(one_row, 2)[0];
  for (int i = 0; i < 5; ++i) {
    const ScoreResult r = queued[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(r.degraded) << "request " << i;
    EXPECT_EQ(std::memcmp(&r.proba, &expect_prefix, sizeof(double)), 0);
  }
  const ScoreResult last = queued[5].get();
  EXPECT_FALSE(last.degraded) << "mode must restore once drained";
  EXPECT_EQ(last.proba, 0.75);
  EXPECT_FALSE(scorer.degraded());

  const ServerStats& s = scorer.stats();
  EXPECT_EQ(s.degraded_batches(), 5u);
  EXPECT_EQ(s.degraded_rows(), 5u);
  EXPECT_EQ(s.rows(), 7u);
}

TEST(BatchScorerTest, DegradedResultsBitIdenticalToPrefixScoring) {
  // End-to-end with a real SPE ensemble: whether or not a given request
  // hits a degraded window, its probability must be bit-identical to the
  // corresponding direct computation.
  const Dataset train = SmallCheckerboard(13);
  const Dataset test = SmallCheckerboard(14, 40, 160);
  const auto model = TrainedSpe(train);
  const auto* voter = dynamic_cast<const PrefixVoter*>(model.get());
  ASSERT_NE(voter, nullptr);
  const std::vector<double> expect_full = model->PredictProba(test);
  const std::vector<double> expect_prefix = voter->PredictProbaPrefix(test, 2);

  BatchScorerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 8;
  config.queue_capacity = 32;
  config.degrade_high_watermark = 16;
  config.degrade_low_watermark = 4;
  config.degrade_prefix = 2;
  BatchScorer scorer(TrainedSpe(train), train.num_features(), config);

  std::vector<std::future<ScoreResult>> futures;
  std::vector<std::size_t> rows;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < test.num_rows(); ++i) {
      std::vector<double> row(test.num_features());
      test.CopyRowTo(i, row);
      futures.push_back(testing::SubmitFuture(scorer, std::move(row)));
      rows.push_back(i);
    }
  }
  std::size_t degraded_rows = 0;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const ScoreResult r = futures[k].get();
    const double expect =
        r.degraded ? expect_prefix[rows[k]] : expect_full[rows[k]];
    EXPECT_EQ(std::memcmp(&r.proba, &expect, sizeof(double)), 0)
        << "request " << k << (r.degraded ? " (degraded)" : "");
    degraded_rows += r.degraded ? 1u : 0u;
  }
  EXPECT_EQ(scorer.stats().degraded_rows(), degraded_rows);
}

TEST(BatchScorerTest, WatermarksServeAModelWithoutPrefixAtFullFidelity) {
  // A model that cannot score an ensemble prefix is served at full
  // fidelity under watermarks and a backlog — at startup just as after a
  // hot reload to it.
  BatchScorerConfig config;
  config.num_workers = 1;
  config.max_batch_size = 1;
  config.max_batch_delay_us = 0;
  config.degrade_high_watermark = 2;
  config.degrade_low_watermark = 1;
  BatchScorer scorer(std::make_unique<SlowConstantModel>(), 2, config);

  std::vector<std::future<ScoreResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(testing::SubmitFuture(scorer, {0.0, 1.0}));
  }
  for (auto& f : futures) {
    const ScoreResult r = f.get();
    EXPECT_EQ(r.proba, 0.25);
    EXPECT_FALSE(r.degraded);
  }
  EXPECT_EQ(scorer.stats().rows(), 8u);
  EXPECT_EQ(scorer.stats().degraded_batches(), 0u);
}

// ------------------------------------------------------------ protocol

TEST(LineProtocolTest, ParsesCsvRow) {
  const ServeRequest r = ParseRequestLine("0.5, -1.25,3e2");
  ASSERT_EQ(r.kind, RequestKind::kScore);
  EXPECT_FALSE(r.json);
  EXPECT_EQ(r.features, (std::vector<double>{0.5, -1.25, 300.0}));
}

TEST(LineProtocolTest, ParsesJsonWithId) {
  const ServeRequest r =
      ParseRequestLine(R"({"id": "row-9", "features": [1, 2.5, -3]})");
  ASSERT_EQ(r.kind, RequestKind::kScore);
  EXPECT_TRUE(r.json);
  EXPECT_EQ(r.id, "\"row-9\"");
  EXPECT_EQ(r.features, (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_EQ(FormatScoreResponse(r, 0.5), R"({"id":"row-9","proba":0.5})");
}

TEST(LineProtocolTest, JsonNumericIdAndKeyOrder) {
  const ServeRequest r = ParseRequestLine(R"({"features":[4],"id":17})");
  ASSERT_EQ(r.kind, RequestKind::kScore);
  EXPECT_EQ(r.id, "17");
  EXPECT_EQ(r.features, std::vector<double>{4.0});
}

TEST(LineProtocolTest, SpecialLines) {
  EXPECT_EQ(ParseRequestLine("").kind, RequestKind::kEmpty);
  EXPECT_EQ(ParseRequestLine("   ").kind, RequestKind::kEmpty);
  // `STATS` is retired: an ordinary malformed CSV row.
  const ServeRequest stats = ParseRequestLine("STATS");
  EXPECT_EQ(stats.kind, RequestKind::kInvalid);
  EXPECT_EQ(FormatErrorResponse(stats, stats.error),
            "ERR bad number at column 1");
  EXPECT_EQ(ParseRequestLine("!stats").kind, RequestKind::kMetrics);
}

TEST(LineProtocolTest, MalformedLinesReportErrors) {
  EXPECT_EQ(ParseRequestLine("1.0,,2.0").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequestLine("abc").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequestLine("{\"features\":}").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequestLine("{\"id\":1}").kind, RequestKind::kInvalid);
  const ServeRequest bad = ParseRequestLine("{bad json");
  EXPECT_EQ(bad.kind, RequestKind::kInvalid);
  EXPECT_EQ(FormatErrorResponse(bad, bad.error),
            "{\"error\":\"" + bad.error + "\"}");
  const ServeRequest bad_csv = ParseRequestLine("x");
  EXPECT_EQ(FormatErrorResponse(bad_csv, bad_csv.error),
            "ERR " + bad_csv.error);
}

TEST(LineProtocolTest, RejectsNonFiniteFeatures) {
  for (const char* line : {"nan,1.0", "1.0,inf", "-inf", "1.0,NaN,2.0"}) {
    const ServeRequest r = ParseRequestLine(line);
    EXPECT_EQ(r.kind, RequestKind::kInvalid) << line;
    EXPECT_NE(r.error.find("non-finite"), std::string::npos) << line;
  }
  for (const char* line : {R"({"features":[nan]})", R"({"features":[1,inf]})",
                           R"({"features":[-inf,2]})"}) {
    const ServeRequest r = ParseRequestLine(line);
    EXPECT_EQ(r.kind, RequestKind::kInvalid) << line;
    EXPECT_NE(r.error.find("non-finite"), std::string::npos) << line;
  }
}

TEST(LineProtocolTest, RejectsOversizedLine) {
  std::string line(kMaxRequestLineBytes + 1, '1');
  const ServeRequest r = ParseRequestLine(line);
  EXPECT_EQ(r.kind, RequestKind::kInvalid);
  EXPECT_NE(r.error.find("exceeds"), std::string::npos);
  // A line exactly at the cap is still parsed (as a garbage number here,
  // but through the parser, not the length check).
  std::string at_cap(kMaxRequestLineBytes, '1');
  EXPECT_EQ(ParseRequestLine(at_cap).error.find("exceeds"),
            std::string::npos);
}

TEST(LineProtocolTest, RejectsHugeId) {
  const std::string huge(kMaxIdBytes + 10, 'x');
  const ServeRequest r =
      ParseRequestLine("{\"id\":\"" + huge + "\",\"features\":[1]}");
  EXPECT_EQ(r.kind, RequestKind::kInvalid);
  EXPECT_NE(r.error.find("longer than"), std::string::npos);
}

TEST(LineProtocolTest, RejectsTruncatedJson) {
  for (const char* line :
       {R"({"features":[1,2)", R"({"features":[1,2],)", R"({"id":"unterm)",
        R"({"features":)"}) {
    EXPECT_EQ(ParseRequestLine(line).kind, RequestKind::kInvalid) << line;
  }
}

TEST(LineProtocolTest, ParsesDeadlineMs) {
  EXPECT_EQ(ParseRequestLine(R"({"features":[1]})").deadline_ms, -1.0);
  const ServeRequest r =
      ParseRequestLine(R"({"features":[1],"deadline_ms":50})");
  ASSERT_EQ(r.kind, RequestKind::kScore);
  EXPECT_EQ(r.deadline_ms, 50.0);
  // 0 is valid ("already due"); negatives and non-numbers are not.
  EXPECT_EQ(ParseRequestLine(R"({"features":[1],"deadline_ms":0})")
                .deadline_ms,
            0.0);
  EXPECT_EQ(ParseRequestLine(R"({"features":[1],"deadline_ms":-5})").kind,
            RequestKind::kInvalid);
  EXPECT_EQ(ParseRequestLine(R"({"features":[1],"deadline_ms":"soon"})").kind,
            RequestKind::kInvalid);
}

TEST(LineProtocolTest, DegradedResponsesAreMarked) {
  const ServeRequest json =
      ParseRequestLine(R"({"id":7,"features":[1]})");
  EXPECT_EQ(FormatScoreResponse(json, 0.5, /*degraded=*/true),
            R"({"id":7,"proba":0.5,"degraded":true})");
  EXPECT_EQ(FormatScoreResponse(json, 0.5, /*degraded=*/false),
            R"({"id":7,"proba":0.5})");
  // CSV responses stay a bare number either way.
  const ServeRequest csv = ParseRequestLine("1.0");
  EXPECT_EQ(FormatScoreResponse(csv, 0.5, /*degraded=*/true), "0.5");
}

TEST(LineProtocolTest, ResponseRoundTripsDoubleExactly) {
  ServeRequest r;
  r.json = false;
  const double p = 0.123456789012345678;  // not representable exactly
  const std::string text = FormatScoreResponse(r, p);
  EXPECT_EQ(std::strtod(text.c_str(), nullptr), p);
}

// --------------------------------------------------------------- stats

TEST(ServerStatsTest, BucketBoundsAreMonotone) {
  std::uint64_t prev = 0;
  for (std::size_t i = 1; i < ServerStats::kLatencyBuckets; ++i) {
    const std::uint64_t lo = ServerStats::BucketLowerBound(i);
    EXPECT_GT(lo, prev) << "bucket " << i;
    prev = lo;
  }
  // A value always lands in the bucket whose range contains it.
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 100ull, 4096ull,
                          1'000'000ull, 123'456'789ull}) {
    const std::size_t b = ServerStats::BucketIndex(v);
    EXPECT_LE(ServerStats::BucketLowerBound(b), v);
    if (b + 1 < ServerStats::kLatencyBuckets) {
      EXPECT_GT(ServerStats::BucketLowerBound(b + 1), v);
    }
  }
}

TEST(ServerStatsTest, LatencyHistogramReachesTheExposition) {
  ServerStats stats;
  for (std::uint64_t us = 1; us <= 1000; ++us) stats.RecordRequest(us);
  EXPECT_EQ(stats.rows(), 1000u);
  std::string out;
  stats.AppendExposition(out);
  // Values below 8 us get exact buckets; buckets are cumulative.
  EXPECT_NE(out.find("spe_serve_latency_us_bucket{le=\"7\"} 7\n"),
            std::string::npos) << out;
  EXPECT_NE(out.find("spe_serve_latency_us_bucket{le=\"+Inf\"} 1000\n"),
            std::string::npos) << out;
  EXPECT_NE(out.find("spe_serve_latency_us_sum 500500\n"), std::string::npos);
  EXPECT_NE(out.find("spe_serve_latency_us_count 1000\n"), std::string::npos);
}

TEST(ServerStatsTest, BatchHistogramReachesTheExposition) {
  ServerStats stats;
  stats.RecordBatch(1);
  stats.RecordBatch(3);
  stats.RecordBatch(200);
  stats.RecordShed();
  EXPECT_EQ(stats.batches(), 3u);
  EXPECT_EQ(stats.batch_rows(), 204u);
  EXPECT_EQ(stats.shed(), 1u);
  EXPECT_EQ(stats.rows(), 0u);
  std::string out;
  stats.AppendExposition(out);
  // Power-of-two buckets, cumulative: 1 in [1,2), 3 in [2,4), 200 in
  // [128,256).
  for (const char* line : {"spe_serve_batch_size_bucket{le=\"1\"} 1\n",
                           "spe_serve_batch_size_bucket{le=\"3\"} 2\n",
                           "spe_serve_batch_size_bucket{le=\"127\"} 2\n",
                           "spe_serve_batch_size_bucket{le=\"255\"} 3\n",
                           "spe_serve_batch_size_bucket{le=\"+Inf\"} 3\n"}) {
    EXPECT_NE(out.find(line), std::string::npos) << line << out;
  }
}

TEST(ServerStatsTest, RobustnessCounters) {
  ServerStats stats;
  stats.RecordBatch(3, /*degraded=*/true);
  stats.RecordBatch(5, /*degraded=*/false);
  stats.RecordBatch(2, /*degraded=*/true);
  stats.RecordDeadlineExpired();
  stats.RecordDeadlineExpired();
  EXPECT_EQ(stats.batches(), 3u);
  EXPECT_EQ(stats.degraded_batches(), 2u);
  EXPECT_EQ(stats.degraded_rows(), 5u);
  EXPECT_EQ(stats.deadline_expired(), 2u);
}

}  // namespace
}  // namespace spe
