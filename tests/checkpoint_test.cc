// Tests for spe::checkpoint and the crash-safe training contract
// (docs/robustness.md): the retry helper's backoff/exhaustion behavior,
// the checkpoint envelope's integrity checks, and — the heart of it —
// the resume determinism matrix: a run halted at the first, a middle,
// or the last self-paced iteration and then resumed must produce a
// model bundle byte-identical to an uninterrupted run, under
// SetNumThreads(1) and (8), for plain Fit and for FitWithValidation's
// prefix truncation. A run is halted in process by an iteration
// observer that throws: Fit publishes each iteration's checkpoint
// before it runs the observer. Threaded — carries the `sanitize` ctest
// label.

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/checkpoint/checkpoint.h"
#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/frame.h"
#include "spe/common/parallel.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "spe/obs/metrics.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("spe_checkpoint_test_") + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Bundle bytes are the determinism currency: they embed every member,
/// the schema and the v3 hardness histogram, so byte equality is the
/// strongest statement available about two trained models.
std::string BundleBytes(const Classifier& model) {
  std::ostringstream os;
  SaveModelBundle(model, 2, os);
  return os.str();
}

SelfPacedEnsembleConfig TestConfig(std::uint64_t seed = 3) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  config.seed = seed;
  return config;
}

/// Thrown by the observer HaltAfter installs.
struct Halted {};

/// Makes `model`'s fits stop right after iteration `at`: its observer
/// runs once that iteration's checkpoint has published, and throws. An
/// in-process stand-in for SIGKILL that keeps the determinism matrix
/// runnable inside one gtest binary.
void HaltAfter(SelfPacedEnsemble& model, std::size_t at) {
  model.set_iteration_callback([at](const IterationInfo& info) {
    if (info.iteration == at) throw Halted{};
  });
}

// ---------------------------------------------------------------------
// Retry helper
// ---------------------------------------------------------------------

TEST(RetryTest, SucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  int calls = 0;
  const int result = RetryWithBackoff(policy, "unit op", [&] {
    if (++calls < 3) throw TransientIoError("flaky");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustionRethrowsTheLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  int calls = 0;
  EXPECT_THROW(RetryWithBackoff(policy, "unit op",
                                [&]() -> int {
                                  ++calls;
                                  throw TransientIoError("still flaky");
                                }),
               TransientIoError);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, NonTransientErrorsPropagateImmediately) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  EXPECT_THROW(RetryWithBackoff(policy, "unit op",
                                [&]() -> int {
                                  ++calls;
                                  throw std::runtime_error("bit rot");
                                }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);  // permanent failures must not burn the budget
}

TEST(RetryTest, BackoffGrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 30;
  policy.jitter = 0.0;  // deterministic: the exact geometric series
  std::uint64_t state = 123;
  EXPECT_EQ(internal_retry::BackoffMs(policy, 1, state), 5u);
  EXPECT_EQ(internal_retry::BackoffMs(policy, 2, state), 10u);
  EXPECT_EQ(internal_retry::BackoffMs(policy, 3, state), 20u);
  EXPECT_EQ(internal_retry::BackoffMs(policy, 4, state), 30u);  // capped
  EXPECT_EQ(internal_retry::BackoffMs(policy, 9, state), 30u);
}

TEST(RetryTest, JitterStaysWithinTheConfiguredFraction) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1000;
  policy.multiplier = 1.0;
  policy.jitter = 0.5;
  std::uint64_t state = 7;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t delay = internal_retry::BackoffMs(policy, 1, state);
    EXPECT_GE(delay, 500u);
    EXPECT_LE(delay, 1000u);
  }
}

// ---------------------------------------------------------------------
// Checkpoint envelope
// ---------------------------------------------------------------------

/// Trains with a halt after `halt_at`, leaving a real checkpoint behind.
void WriteRealCheckpoint(const std::string& dir, const Dataset& data,
                         std::size_t halt_at, std::uint64_t seed = 3) {
  SelfPacedEnsemble model(TestConfig(seed));
  FitCheckpointOptions options;
  options.directory = dir;
  model.set_checkpoint_options(options);
  HaltAfter(model, halt_at);
  EXPECT_THROW(model.Fit(data), Halted);
}

/// Re-publishes a loaded state through the writer Fit uses. A write
/// that fails past its retries throws TransientIoError.
void Republish(const checkpoint::LoadResult& loaded, const std::string& path,
               const RetryPolicy& retry = {}) {
  std::vector<std::string> blobs;
  for (std::size_t i = 0; i < loaded.members.size(); ++i) {
    std::ostringstream os;
    SaveClassifier(loaded.members.member(i), os);
    blobs.push_back(os.str());
  }
  checkpoint::PublishCheckpoint(path, loaded.core, blobs, retry);
}

TEST(CheckpointEnvelopeTest, RealCheckpointReserializesByteIdentically) {
  const std::string dir = TempDir("roundtrip");
  const Dataset data = OverlappingBlobs(200, 30, 3);
  WriteRealCheckpoint(dir, data, 4);

  const std::string path = checkpoint::CheckpointPath(dir);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error.message;
  // The observer threw after iteration 4's publish: the file holds it.
  EXPECT_EQ(loaded.core.next_iteration, 5u);
  EXPECT_EQ(loaded.members.size(), 4u);   // f0 votes but is not a member
  // f0 is not a member, so the checkpoint must carry its bytes for the
  // resume replay (no accumulator is stored at all).
  EXPECT_FALSE(loaded.core.bootstrap_blob.empty());
  EXPECT_FALSE(loaded.core.rng_state.empty());
  EXPECT_EQ(loaded.core.data_fingerprint,
            checkpoint::DatasetFingerprint(data));

  // Load -> save must reproduce the file byte for byte; any drift here
  // would break the kill-resume-kill-resume chains the chaos harness
  // runs, where later checkpoints descend from restored state.
  const std::string resaved = dir + "/resaved.ckpt";
  Republish(loaded, resaved);
  EXPECT_EQ(ReadFile(resaved), ReadFile(path));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointEnvelopeTest, MissingFileIsAFreshStartNotAnError) {
  const std::string dir = TempDir("missing");
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(dir));
  EXPECT_TRUE(loaded.missing);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointEnvelopeTest, IntegrityViolationsAreRefusedWithReasons) {
  const std::string dir = TempDir("integrity");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  const std::string path = checkpoint::CheckpointPath(dir);
  const std::string bytes = ReadFile(path);

  std::string corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= 0x01;
  WriteFile(path, corrupt);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_EQ(loaded.error.cls, frame::ErrorClass::kCorrupt);
  EXPECT_NE(loaded.error.message.find("crc32 mismatch"), std::string::npos)
      << loaded.error.message;

  // The file is one frame, so a cut payload has no earlier state to
  // fall back to.
  WriteFile(path, bytes.substr(0, bytes.size() / 2));
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_EQ(loaded.error.cls, frame::ErrorClass::kTruncated);
  EXPECT_NE(loaded.error.message.find("truncated"), std::string::npos)
      << loaded.error.message;

  WriteFile(path, "hello world\n");
  loaded = checkpoint::LoadTrainerStateFromFile(path);
  EXPECT_EQ(loaded.error.cls, frame::ErrorClass::kBadMagic);
  EXPECT_NE(loaded.error.message.find("bad magic"), std::string::npos)
      << loaded.error.message;

  // Version 1 (commit records beside a member log) and version 2 (with
  // FitWithValidation's early-stop state) are refused as unsupported
  // versions, and say so.
  const std::string v3 = "spe-checkpoint 3 ";
  ASSERT_EQ(bytes.rfind(v3, 0), 0u);
  for (const char* old_version : {"1", "2"}) {
    WriteFile(path, std::string("spe-checkpoint ") + old_version + " " +
                        bytes.substr(v3.size()));
    loaded = checkpoint::LoadTrainerStateFromFile(path);
    EXPECT_EQ(loaded.error.cls, frame::ErrorClass::kUnsupportedVersion)
        << "version " << old_version;
    EXPECT_NE(loaded.error.message.find("unsupported checkpoint version"),
              std::string::npos)
        << loaded.error.message;
  }

  // A payload that passes its CRC is still parsed, not trusted: a record
  // count past the payload's end, a member that is no model and an
  // unknown record kind are each refused as malformed. The real state
  // lines alone decode, so each refusal is its record's.
  const auto framed = [](const std::string& payload) {
    return "spe-checkpoint 3 payload_bytes " + std::to_string(payload.size()) +
           " crc32 " + frame::CrcHex(Crc32(payload)) + "\n" + payload;
  };
  const std::size_t header_end = bytes.find('\n') + 1;
  const std::string state =
      bytes.substr(header_end, bytes.find("\nbootstrap ") + 1 - header_end);
  ASSERT_TRUE(checkpoint::DecodeTrainerState(framed(state)).ok());
  const struct {
    const char* records;
    const char* reason;
  } handmade[] = {
      {"member 18446744073709551615\nxx", "bad model record"},
      {"member 5\nhello", "bad member model"},
      {"bogus 3\nabc", "bad model record"},
  };
  for (const auto& c : handmade) {
    loaded = checkpoint::DecodeTrainerState(framed(state + c.records));
    EXPECT_EQ(loaded.error.cls, frame::ErrorClass::kMalformed) << c.records;
    EXPECT_NE(loaded.error.message.find(c.reason), std::string::npos)
        << loaded.error.message;
    EXPECT_EQ(loaded.members.size(), 0u) << c.records;
  }

  // A publish killed before its rename leaves a partial tmp file beside
  // the last good checkpoint. Nothing reads it: the run resumes from the
  // checkpoint, lands on the uninterrupted run's bytes, and its next
  // publish replaces the tmp file.
  WriteFile(path, bytes);
  WriteFile(path + ".tmp", bytes.substr(0, bytes.size() / 3));
  SelfPacedEnsemble truth(TestConfig());
  truth.Fit(data);
  SelfPacedEnsemble resumed(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  resumed.set_checkpoint_options(options);
  EXPECT_NO_THROW(resumed.Fit(data));
  EXPECT_EQ(BundleBytes(resumed), BundleBytes(truth));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(DatasetFingerprintTest, SensitiveToEveryBitThatCouldAlterTraining) {
  const Dataset a = OverlappingBlobs(100, 15, 3);
  const Dataset b = OverlappingBlobs(100, 15, 3);
  EXPECT_EQ(checkpoint::DatasetFingerprint(a),
            checkpoint::DatasetFingerprint(b));

  const Dataset other_seed = OverlappingBlobs(100, 15, 4);
  EXPECT_NE(checkpoint::DatasetFingerprint(a),
            checkpoint::DatasetFingerprint(other_seed));

  Dataset extra_row = OverlappingBlobs(100, 15, 3);
  extra_row.AddRow(std::vector<double>{0.0, 0.0}, 1);
  EXPECT_NE(checkpoint::DatasetFingerprint(a),
            checkpoint::DatasetFingerprint(extra_row));
}

// ---------------------------------------------------------------------
// Resume determinism matrix
// ---------------------------------------------------------------------

class ResumeDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(0); }

  /// Halts a checkpointed run after `halt_at`, resumes it in a fresh
  /// trainer, and returns the resumed model's bundle bytes.
  std::string HaltAndResume(const Dataset& data, std::size_t halt_at,
                            std::size_t every) {
    const std::string dir = TempDir("matrix");
    {
      SelfPacedEnsemble halted(TestConfig());
      FitCheckpointOptions options;
      options.directory = dir;
      options.every = every;
      halted.set_checkpoint_options(options);
      HaltAfter(halted, halt_at);
      EXPECT_THROW(halted.Fit(data), Halted);
    }
    SelfPacedEnsemble resumed(TestConfig());
    FitCheckpointOptions options;
    options.directory = dir;
    options.every = every;
    options.resume = true;
    resumed.set_checkpoint_options(options);
    resumed.Fit(data);
    const std::string bytes = BundleBytes(resumed);
    std::filesystem::remove_all(dir);
    return bytes;
  }
};

TEST_F(ResumeDeterminismTest, KilledAtFirstMiddleLastMatchesStraightThrough) {
  const Dataset data = OverlappingBlobs(300, 40, 3);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SetNumThreads(threads);
    SelfPacedEnsemble truth(TestConfig());
    truth.Fit(data);
    const std::string truth_bytes = BundleBytes(truth);
    for (const std::size_t halt_at :
         {std::size_t{1}, std::size_t{5}, std::size_t{10}}) {
      EXPECT_EQ(HaltAndResume(data, halt_at, 1), truth_bytes)
          << "halt at iteration " << halt_at << " under " << threads
          << " thread(s) diverged from the uninterrupted run";
    }
  }
}

TEST_F(ResumeDeterminismTest, SparseCheckpointsReplayKilledIterations) {
  // --checkpoint-every 2 with a halt at 3: the newest checkpoint is
  // from iteration 2, so the resume must *replay* iteration 3 from
  // restored RNG state and still land on identical bytes.
  const Dataset data = OverlappingBlobs(300, 40, 3);
  SetNumThreads(1);
  SelfPacedEnsemble truth(TestConfig());
  truth.Fit(data);
  EXPECT_EQ(HaltAndResume(data, 3, 2), BundleBytes(truth));
}

TEST_F(ResumeDeterminismTest, ValidationEarlyStopSurvivesKillAndResume) {
  const Dataset train = OverlappingBlobs(300, 40, 3);
  const Dataset validation = OverlappingBlobs(80, 12, 17);

  SelfPacedEnsemble truth(TestConfig());
  const std::size_t truth_size = truth.FitWithValidation(train, validation);
  const std::string truth_bytes = BundleBytes(truth);

  const std::string dir = TempDir("validation");
  {
    SelfPacedEnsemble halted(TestConfig());
    FitCheckpointOptions options;
    options.directory = dir;
    halted.set_checkpoint_options(options);
    HaltAfter(halted, 5);
    EXPECT_THROW(halted.FitWithValidation(train, validation), Halted);
  }
  SelfPacedEnsemble resumed(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  resumed.set_checkpoint_options(options);
  const std::size_t resumed_size =
      resumed.FitWithValidation(train, validation);
  EXPECT_EQ(resumed_size, truth_size);
  EXPECT_EQ(BundleBytes(resumed), truth_bytes);

  // Crash *after* the last iteration but before the artifact publishes:
  // the final checkpoint (next_iteration = n + 1) restores the full
  // ensemble, and the resume only re-runs the prefix truncation.
  SelfPacedEnsemble post(TestConfig());
  post.set_checkpoint_options(options);
  const std::size_t post_size = post.FitWithValidation(train, validation);
  EXPECT_EQ(post_size, truth_size);
  EXPECT_EQ(BundleBytes(post), truth_bytes);
  std::filesystem::remove_all(dir);
}

TEST_F(ResumeDeterminismTest, PlainFitCheckpointResumesFitWithValidation) {
  // Both entry points train the same members, and the validation set is
  // scored only after the last one, so a checkpoint written by Fit
  // resumes FitWithValidation onto the uninterrupted run's prefix and
  // bytes.
  const Dataset train = OverlappingBlobs(300, 40, 3);
  const Dataset validation = OverlappingBlobs(80, 12, 17);

  SelfPacedEnsemble truth(TestConfig());
  const std::size_t truth_size = truth.FitWithValidation(train, validation);

  const std::string dir = TempDir("cross_mode");
  FitCheckpointOptions options;
  options.directory = dir;
  {
    SelfPacedEnsemble halted(TestConfig());
    halted.set_checkpoint_options(options);
    HaltAfter(halted, 4);
    EXPECT_THROW(halted.Fit(train), Halted);
  }
  options.resume = true;
  SelfPacedEnsemble resumed(TestConfig());
  resumed.set_checkpoint_options(options);
  EXPECT_EQ(resumed.FitWithValidation(train, validation), truth_size);
  EXPECT_EQ(BundleBytes(resumed), BundleBytes(truth));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Resume refusals
// ---------------------------------------------------------------------

/// Fit's refusal reason for the checkpoint in `options.directory`: the
/// ResumeRefused message, or "" when Fit did not throw. Fit reads the
/// checkpoint once and refuses it before training anything.
std::string RefusalOf(SelfPacedEnsemble& model, const Dataset& data) {
  try {
    model.Fit(data);
  } catch (const checkpoint::ResumeRefused& refused) {
    return refused.what();
  }
  return "";
}

TEST(ResumeRefusalTest, DifferentTrainingDataThrows) {
  const std::string dir = TempDir("wrong_data");
  const Dataset data = OverlappingBlobs(150, 25, 3);
  WriteRealCheckpoint(dir, data, 2);

  const Dataset other = OverlappingBlobs(150, 25, 4);
  SelfPacedEnsemble model(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  model.set_checkpoint_options(options);
  const std::string reason = RefusalOf(model, other);
  EXPECT_NE(reason.find("different training data"), std::string::npos)
      << reason;
  EXPECT_NE(reason.find("cannot resume from " + checkpoint::CheckpointPath(dir)),
            std::string::npos)
      << reason;
  EXPECT_EQ(model.NumMembers(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ResumeRefusalTest, ConfigMismatchThrowsWithoutAborting) {
  const std::string dir = TempDir("wrong_config");
  const Dataset data = OverlappingBlobs(150, 25, 3);
  WriteRealCheckpoint(dir, data, 2, /*seed=*/3);

  SelfPacedEnsemble model(TestConfig(/*seed=*/4));
  FitCheckpointOptions options;
  options.directory = dir;
  options.resume = true;
  model.set_checkpoint_options(options);
  const std::string reason = RefusalOf(model, data);
  EXPECT_NE(reason.find("different trainer configuration"),
            std::string::npos)
      << reason;
  std::filesystem::remove_all(dir);
}

TEST(ResumeRefusalTest, ResumeWithNoDirOrNoFileTrainsFromScratch) {
  const Dataset data = OverlappingBlobs(50, 10, 3);
  SelfPacedEnsemble truth(TestConfig());
  truth.Fit(data);

  SelfPacedEnsemble model(TestConfig());
  FitCheckpointOptions options;
  options.resume = true;  // no directory: checkpointing is off
  model.set_checkpoint_options(options);
  EXPECT_TRUE(RefusalOf(model, data).empty());
  EXPECT_EQ(BundleBytes(model), BundleBytes(truth));

  const std::string dir = TempDir("empty");
  options.directory = dir;
  model.set_checkpoint_options(options);
  EXPECT_TRUE(RefusalOf(model, data).empty());
  EXPECT_EQ(BundleBytes(model), BundleBytes(truth));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

TEST(CheckpointFaultTest, WriteFaultsExhaustRetriesThenThrow) {
  const std::string dir = TempDir("write_fault");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(dir));
  ASSERT_TRUE(loaded.ok()) << loaded.error.message;

  FaultConfig faults;
  faults.artifact_write_fail_rate = 1.0;
  Faults().Configure(faults);
  RetryPolicy fast;
  fast.max_attempts = 3;
  fast.initial_backoff_ms = 1;
  EXPECT_THROW(Republish(loaded, dir + "/denied.ckpt", fast),
               TransientIoError);
  Faults().Reset();
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, FlakyWritesRecoverThroughBackoff) {
  const std::string dir = TempDir("flaky_write");
  const Dataset data = OverlappingBlobs(120, 20, 3);
  WriteRealCheckpoint(dir, data, 2);
  checkpoint::LoadResult loaded = checkpoint::LoadTrainerStateFromFile(
      checkpoint::CheckpointPath(dir));
  ASSERT_TRUE(loaded.ok()) << loaded.error.message;

  // Under seed 23 the first two write draws fail and the third succeeds,
  // so the publish lands only through the backoff loop.
  FaultConfig faults;
  faults.artifact_write_fail_rate = 0.5;
  faults.seed = 23;
  Faults().Configure(faults);
  RetryPolicy patient;
  patient.max_attempts = 8;
  patient.initial_backoff_ms = 1;
  const std::string path = dir + "/flaky.ckpt";
  const obs::Counter& retries =
      obs::MetricsRegistry::Global().GetCounter("spe_io_retries_total");
  const std::uint64_t retries_before = retries.value();
  Republish(loaded, path, patient);
  Faults().Reset();
  EXPECT_GE(retries.value(), retries_before + 1) << "the publish never retried";
  EXPECT_TRUE(std::filesystem::exists(path));
  // The flaky save is the live checkpoint, byte for byte.
  EXPECT_EQ(ReadFile(path), ReadFile(checkpoint::CheckpointPath(dir)));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, CrashAtIterationDeliversARealSigkill) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = TempDir("sigkill");
  const Dataset data = OverlappingBlobs(120, 20, 3);

  FaultConfig faults;
  faults.crash_at_iteration = 2;
  SelfPacedEnsemble model(TestConfig());
  FitCheckpointOptions options;
  options.directory = dir;
  model.set_checkpoint_options(options);
  EXPECT_EXIT(
      {
        Faults().Configure(faults);
        model.Fit(data);
      },
      ::testing::KilledBySignal(SIGKILL), "killing process");
  // The kill fires only after the iteration's checkpoint published.
  EXPECT_TRUE(std::filesystem::exists(checkpoint::CheckpointPath(dir)));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFaultTest, HaltWithoutACheckpointDirectoryStopsTheFit) {
  // The in-process crash stand-in needs no checkpoint to stop after.
  SelfPacedEnsemble model(TestConfig());
  HaltAfter(model, 3);
  EXPECT_THROW(model.Fit(OverlappingBlobs(120, 20, 3)), Halted);
  EXPECT_EQ(model.NumMembers(), 3u);
}

}  // namespace
}  // namespace spe
