// Failure-path tests for model_io bundle loading: legacy artifacts are
// refused, integrity violations (truncation, bit rot) abort the loaders
// with messages that name the real problem, the decoder reports the
// same conditions as classified errors without aborting, hand-made
// payloads that pass their CRC are still refused as malformed, and the
// v3 hardness-histogram line round-trips byte-identically through
// save -> load -> re-save.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/common/crc32.h"
#include "spe/common/fault.h"
#include "spe/common/frame.h"
#include "spe/common/retry.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/io/model_io.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;

std::unique_ptr<SelfPacedEnsemble> TrainSpe(std::uint64_t seed) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 3;
  config.seed = seed;
  auto model = std::make_unique<SelfPacedEnsemble>(config);
  model->Fit(OverlappingBlobs(200, 30, seed));
  return model;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("spe_model_io_failure_") + name))
      .string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SaveBundleString(const Classifier& model) {
  std::ostringstream os;
  SaveModelBundle(model, 2, os);
  return os.str();
}

// The bundle with its header claiming ~1 PB of payload: a length lie
// that loaders must refuse as truncation before allocating the claim.
std::string WithLyingPayloadBytes(std::string bytes) {
  const std::string key = "payload_bytes ";
  const std::size_t at = bytes.find(key) + key.size();
  const std::size_t end = bytes.find(' ', at);
  return bytes.replace(at, end - at, "999999999999999");
}

TEST(ModelIoFailureTest, BareStreamIsRefusedAsBadMagic) {
  auto model = TrainSpe(1);
  std::stringstream stream;
  SaveClassifier(*model, stream);

  ModelBundle bundle;
  const frame::Error error = DecodeModelBundle(stream.str(), &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kBadMagic);
  EXPECT_EQ(error.message, "not an spe model stream");
  EXPECT_EQ(bundle.model, nullptr);
  EXPECT_DEATH(LoadModelBundle(stream), "not an spe model stream");
}

TEST(ModelIoFailureTest, V1BundleIsRefusedAsUnsupportedVersion) {
  auto model = TrainSpe(2);
  std::ostringstream payload;
  SaveClassifier(*model, payload);
  std::stringstream stream;
  stream << "spe-bundle 1 num_features 2\n" << payload.str();

  ModelBundle bundle;
  EXPECT_EQ(DecodeModelBundle(stream.str(), &bundle).cls,
            frame::ErrorClass::kUnsupportedVersion);
  EXPECT_EQ(bundle.model, nullptr);
  EXPECT_DEATH(LoadModelBundle(stream), "unsupported bundle version");
}

TEST(ModelIoFailureTest, CrcMismatchAbortsWithCorruptionMessage) {
  auto model = TrainSpe(4);
  std::string bytes = SaveBundleString(*model);
  // Flip one payload byte (past the two header lines) — the artifact
  // still parses as text, so only the checksum can catch this.
  const std::size_t payload_start =
      bytes.find('\n', bytes.find('\n') + 1) + 1;
  ASSERT_LT(payload_start + 10, bytes.size());
  bytes[payload_start + 10] ^= 0x01;
  const std::string path = TempPath("corrupt.model");
  WriteFile(path, bytes);

  EXPECT_DEATH(LoadModelBundleFromFile(path), "model artifact corrupted");
  std::filesystem::remove(path);
}

TEST(ModelIoFailureTest, TruncatedPayloadAbortsWithTruncationMessage) {
  auto model = TrainSpe(5);
  const std::string bytes = SaveBundleString(*model);
  const std::string path = TempPath("truncated.model");
  WriteFile(path, bytes.substr(0, bytes.size() / 2));

  EXPECT_DEATH(LoadModelBundleFromFile(path), "model artifact truncated");

  WriteFile(path, WithLyingPayloadBytes(bytes));
  EXPECT_DEATH(LoadModelBundleFromFile(path), "model artifact truncated");
  std::filesystem::remove(path);
}

TEST(ModelIoFailureTest, DecoderClassifiesEveryFailureWithoutAborting) {
  auto model = TrainSpe(6);
  const std::string bytes = SaveBundleString(*model);

  const std::string good = TempPath("decode_good.model");
  WriteFile(good, bytes);
  ModelBundle bundle;
  frame::Error error = DecodeModelBundleFromFile(good, &bundle);
  ASSERT_TRUE(error.ok()) << error.message;
  EXPECT_EQ(bundle.format_version, 3);
  EXPECT_EQ(bundle.num_features, 2u);
  EXPECT_GT(bundle.payload_bytes, 0u);
  EXPECT_EQ(bundle.crc32_hex.size(), 8u);
  EXPECT_FALSE(bundle.hardness_histogram.empty());

  error = DecodeModelBundleFromFile(TempPath("decode_missing.model"), &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kIo);
  EXPECT_NE(error.message.find("cannot open"), std::string::npos);

  const std::string truncated = TempPath("decode_truncated.model");
  WriteFile(truncated, bytes.substr(0, bytes.size() - 7));
  error = DecodeModelBundleFromFile(truncated, &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kTruncated);
  EXPECT_NE(error.message.find("truncated"), std::string::npos)
      << error.message;

  const std::string lying = TempPath("decode_lying.model");
  WriteFile(lying, WithLyingPayloadBytes(bytes));
  error = DecodeModelBundleFromFile(lying, &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kTruncated);
  EXPECT_NE(error.message.find("truncated"), std::string::npos)
      << error.message;

  std::string corrupt_bytes = bytes;
  corrupt_bytes[corrupt_bytes.size() - 2] ^= 0x01;
  const std::string corrupt = TempPath("decode_corrupt.model");
  WriteFile(corrupt, corrupt_bytes);
  error = DecodeModelBundleFromFile(corrupt, &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kCorrupt);
  EXPECT_NE(error.message.find("corrupted"), std::string::npos)
      << error.message;

  const std::string garbage = TempPath("decode_garbage.model");
  WriteFile(garbage, "hello world\n");
  error = DecodeModelBundleFromFile(garbage, &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kBadMagic);
  EXPECT_FALSE(error.message.empty());

  for (const std::string& p : {good, truncated, lying, corrupt, garbage}) {
    std::filesystem::remove(p);
  }
}

// A hand-made v2 bundle around `payload` with a correct header: right
// length, right CRC. Only the payload decoder stands between these
// bytes and a served model.
std::string HandMadeBundle(const std::string& payload,
                           std::size_t num_features = 2) {
  return "spe-bundle 2 num_features " + std::to_string(num_features) +
         " payload_bytes " + std::to_string(payload.size()) + " crc32 " +
         frame::CrcHex(Crc32(payload)) + "\n" + payload;
}

const char kTree[] = "spe-model 1 DecisionTree\n";
const char kLeaves[] = "-1 0 -1 -1 0.25\n-1 0 -1 -1 0.75\n";

// Every probe passes its CRC; each must be refused as malformed, with no
// model handed out — not decoded into a model that crashes, hangs or
// reads past the row when it scores.
void ExpectMalformedPayload(const std::string& payload, const char* why) {
  ModelBundle bundle;
  const frame::Error error = DecodeModelBundle(HandMadeBundle(payload), &bundle);
  EXPECT_EQ(error.cls, frame::ErrorClass::kMalformed) << why << ": "
                                                      << error.message;
  EXPECT_NE(error.message.find("malformed model artifact payload"),
            std::string::npos)
      << why << ": " << error.message;
  EXPECT_EQ(bundle.model, nullptr) << why;
}

TEST(ModelIoFailureTest, HandMadeBundleOfAValidTreeLoads) {
  const std::string payload =
      std::string(kTree) + "nodes 3\n1 0.5 1 2 0.5\n" + kLeaves;
  ModelBundle bundle;
  const frame::Error error = DecodeModelBundle(HandMadeBundle(payload), &bundle);
  ASSERT_TRUE(error.ok()) << error.message;
  EXPECT_EQ(bundle.model->PredictRow(std::vector<double>{0.0, 0.4}), 0.25);
  EXPECT_EQ(bundle.model->PredictRow(std::vector<double>{0.0, 0.6}), 0.75);
}

TEST(ModelIoFailureTest, TreeChildPastTheNodeCountIsMalformed) {
  ExpectMalformedPayload(
      std::string(kTree) + "nodes 3\n0 0.5 1 7 0.5\n" + kLeaves,
      "child index 7 of 3 nodes");
}

// A cycle: a walk through it never reaches a leaf.
TEST(ModelIoFailureTest, TreeNodeThatIsItsOwnChildIsMalformed) {
  ExpectMalformedPayload(
      std::string(kTree) + "nodes 3\n0 0.5 0 2 0.5\n" + kLeaves,
      "left child is the node itself");
}

// Two parents sharing children: no cycle, but 2^k root-to-leaf paths
// for the load-time depth walk.
TEST(ModelIoFailureTest, TreeNodeWithTwoParentsIsMalformed) {
  std::string payload = std::string(kTree) + "nodes 41\n";
  for (int i = 0; i < 40; ++i) {
    payload += "0 0.5 " + std::to_string(i + 1) + " " +
               std::to_string(i + 1) + " 0.5\n";
  }
  ExpectMalformedPayload(payload + "-1 0 -1 -1 0.5\n", "shared children");
}

TEST(ModelIoFailureTest, LeafWithChildrenIsMalformed) {
  ExpectMalformedPayload(
      std::string(kTree) + "nodes 3\n0 0.5 1 2 0.5\n-1 0 2 -1 0.25\n" +
          "-1 0 -1 -1 0.75\n",
      "leaf pointing at a node");
}

// The split feature must index into the bundle's rows: feature 9 of a
// 2-wide row would be read from past the row and scored.
TEST(ModelIoFailureTest, SplitFeaturePastTheRowIsMalformed) {
  ExpectMalformedPayload(
      std::string(kTree) + "nodes 3\n9 0.5 1 2 0.5\n" + kLeaves,
      "feature 9 of 2");
}

TEST(ModelIoFailureTest, NodeCountPastThePayloadIsMalformed) {
  ExpectMalformedPayload(std::string(kTree) + "nodes 99999999999\n" + kLeaves,
                         "nodes 99999999999");
}

// GBDT trees read through the same node-table check.
TEST(ModelIoFailureTest, GbdtTreeChildPastTheNodeCountIsMalformed) {
  const std::string head =
      "spe-model 1 Gbdt\nbase_score 0\nlearning_rate 0.1\ntrees 1\n";
  ExpectMalformedPayload(head + "nodes 3\n0 0.5 1 5 0\n" + kLeaves,
                         "gbdt child index 5 of 3 nodes");
  ExpectMalformedPayload(head + "nodes 3\n4 0.5 1 2 0\n" + kLeaves,
                         "gbdt feature 4 of 2");
}

TEST(ModelIoFailureTest, UnknownModelTagIsMalformed) {
  ExpectMalformedPayload("spe-model 1 Mystery\nnodes 1\n-1 0 -1 -1 0.5\n",
                         "unknown tag");
}

TEST(ModelIoFailureTest, MissingEnsembleMemberIsMalformed) {
  ExpectMalformedPayload(std::string("spe-model 1 VotingEnsemble\nmembers 3\n") +
                             kTree + "nodes 1\n-1 0 -1 -1 0.5\n",
                         "members 3, one present");
  ExpectMalformedPayload(std::string("spe-model 1 VotingEnsemble\nmembers 0\n"),
                         "members 0");
}

TEST(ModelIoFailureTest, LinearModelOfTheWrongWidthIsMalformed) {
  ExpectMalformedPayload(
      "spe-model 1 LogisticRegression\ndim 3\n1 2 3 \nbias 0\nscaler 3\n"
      "0 1 0\n0 1 0\n0 1 0\n",
      "3 weights for 2-wide rows");
}

TEST(ModelIoFailureTest, TransientWriteFaultThrowsWithoutPublishing) {
  // artifact_write_fail_rate models recoverable I/O weather: unlike
  // model_io_fail_rate's abort, it throws TransientIoError *before* the
  // tmp file is written, so no fault ever leaves a torn artifact.
  auto model = TrainSpe(9);
  const std::string path = TempPath("transient_write.model");
  FaultConfig faults;
  faults.artifact_write_fail_rate = 1.0;
  Faults().Configure(faults);
  EXPECT_THROW(SaveModelBundleToFile(*model, 2, path), TransientIoError);
  Faults().Reset();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // With faults off the same call publishes, and a transient *read*
  // fault on the way back throws without consuming the file.
  SaveModelBundleToFile(*model, 2, path);
  faults.artifact_write_fail_rate = 0.0;
  faults.artifact_read_fail_rate = 1.0;
  Faults().Configure(faults);
  EXPECT_THROW(LoadModelBundleFromFile(path), TransientIoError);
  Faults().Reset();
  ModelBundle bundle = LoadModelBundleFromFile(path);
  EXPECT_NE(bundle.model, nullptr);
  std::filesystem::remove(path);
}

TEST(ModelIoFailureTest, V3HistogramRoundTripsByteIdentically) {
  auto model = TrainSpe(7);
  ASSERT_NE(model->training_hardness(), nullptr);
  const std::string first = SaveBundleString(*model);
  EXPECT_EQ(first.rfind("spe-bundle 3 num_features 2 payload_bytes ", 0), 0u);
  EXPECT_NE(first.find("\nhardness_histogram "), std::string::npos);

  std::istringstream is(first);
  ModelBundle bundle = LoadModelBundle(is);
  ASSERT_FALSE(bundle.hardness_histogram.empty());
  EXPECT_EQ(bundle.hardness_histogram.total(),
            model->training_hardness()->total());

  // Re-saving the loaded model must reproduce the artifact byte for
  // byte — the histogram (17-significant-digit min/max included)
  // survives the round trip exactly.
  const std::string second = SaveBundleString(*bundle.model);
  EXPECT_EQ(first, second);
}

TEST(ModelIoFailureTest, HandcraftedV2BundleStillLoads) {
  auto model = TrainSpe(8);
  const std::string v3 = SaveBundleString(*model);
  const std::size_t header_end = v3.find('\n');
  const std::size_t histogram_end = v3.find('\n', header_end + 1);
  ASSERT_NE(histogram_end, std::string::npos);

  // Rebuild the header as version 2 (same payload, same integrity
  // fields, no histogram line) — the pre-lifecycle on-disk format.
  std::istringstream header(v3.substr(0, header_end));
  std::string magic, kw_features, kw_payload, kw_crc, crc;
  int version = 0;
  std::size_t num_features = 0, payload_bytes = 0;
  header >> magic >> version >> kw_features >> num_features >> kw_payload >>
      payload_bytes >> kw_crc >> crc;
  ASSERT_EQ(version, 3);
  std::ostringstream v2;
  v2 << "spe-bundle 2 num_features " << num_features << " payload_bytes "
     << payload_bytes << " crc32 " << crc << "\n"
     << v3.substr(histogram_end + 1);

  std::istringstream is(v2.str());
  ModelBundle bundle = LoadModelBundle(is);
  ASSERT_NE(bundle.model, nullptr);
  EXPECT_EQ(bundle.format_version, 2);
  EXPECT_EQ(bundle.num_features, 2u);
  EXPECT_TRUE(bundle.hardness_histogram.empty());

  const Dataset test = OverlappingBlobs(30, 10, 9);
  const std::vector<double> expected = model->PredictProba(test);
  const std::vector<double> restored = bundle.model->PredictProba(test);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected[i], restored[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace spe
