#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "spe/classifiers/adaboost.h"
#include "spe/classifiers/bagging.h"
#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/gbdt/gbdt.h"
#include "spe/classifiers/knn.h"
#include "spe/classifiers/logistic_regression.h"
#include "spe/classifiers/random_forest.h"
#include "spe/common/fault.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/imbalance/balance_cascade.h"
#include "spe/imbalance/easy_ensemble.h"
#include "spe/io/model_io.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using ::spe::testing::SeparableBlobs;
using ::spe::testing::XorClusters;

// Saves, reloads, and verifies bit-identical predictions on `test`.
void ExpectRoundTrip(const Classifier& model, const Dataset& test) {
  std::stringstream stream;
  SaveClassifier(model, stream);
  const std::unique_ptr<Classifier> loaded = LoadClassifier(stream);
  const std::vector<double> original = model.PredictProba(test);
  const std::vector<double> restored = loaded->PredictProba(test);
  ASSERT_EQ(original.size(), restored.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(original[i], restored[i]) << "row " << i;
  }
}

TEST(ModelIoTest, DecisionTreeRoundTrip) {
  DecisionTree tree;
  tree.Fit(XorClusters(80, 1));
  ExpectRoundTrip(tree, XorClusters(40, 2));
}

TEST(ModelIoTest, GbdtRoundTrip) {
  GbdtConfig config;
  config.boost_rounds = 8;
  Gbdt gbdt(config);
  gbdt.Fit(OverlappingBlobs(300, 60, 3));
  ExpectRoundTrip(gbdt, OverlappingBlobs(100, 20, 4));
}

TEST(ModelIoTest, LogisticRegressionRoundTrip) {
  LogisticRegression lr;
  lr.Fit(SeparableBlobs(120, 120, 5));
  ExpectRoundTrip(lr, SeparableBlobs(40, 40, 6));
}

TEST(ModelIoTest, AdaBoostRoundTrip) {
  AdaBoostConfig config;
  config.n_estimators = 6;
  config.learning_rate = 0.7;
  AdaBoost boost(config);
  boost.Fit(XorClusters(80, 7));
  ExpectRoundTrip(boost, XorClusters(40, 8));
}

TEST(ModelIoTest, SelfPacedEnsembleRoundTripsAsVotingModel) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  SelfPacedEnsemble spe_model(config);
  spe_model.Fit(OverlappingBlobs(400, 40, 9));

  std::stringstream stream;
  SaveClassifier(spe_model, stream);
  const auto loaded = LoadClassifier(stream);
  EXPECT_EQ(loaded->Name(), "VotingEnsemble");
  const Dataset test = OverlappingBlobs(100, 20, 10);
  const auto a = spe_model.PredictProba(test);
  const auto b = loaded->PredictProba(test);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ModelIoTest, EasyEnsembleWithAdaBoostMembersRoundTrips) {
  UnderBaggingConfig config;
  config.n_estimators = 3;
  EasyEnsemble easy(config);
  easy.Fit(OverlappingBlobs(300, 40, 11));
  ExpectRoundTrip(easy, OverlappingBlobs(80, 20, 12));
}

TEST(ModelIoTest, CascadeAndBaggingAndForestRoundTrip) {
  const Dataset train = OverlappingBlobs(300, 40, 13);
  const Dataset test = OverlappingBlobs(80, 20, 14);
  {
    BalanceCascade cascade;
    cascade.Fit(train);
    ExpectRoundTrip(cascade, test);
  }
  {
    Bagging bagging;
    bagging.Fit(train);
    ExpectRoundTrip(bagging, test);
  }
  {
    RandomForest forest;
    forest.Fit(train);
    ExpectRoundTrip(forest, test);
  }
}

TEST(ModelIoTest, GbdtOverSpeRoundTrips) {
  // Ensemble of boosters: nested recursive serialization.
  GbdtConfig gbdt_config;
  gbdt_config.boost_rounds = 4;
  SelfPacedEnsembleConfig config;
  config.n_estimators = 4;
  SelfPacedEnsemble model(config, std::make_unique<Gbdt>(gbdt_config));
  model.Fit(OverlappingBlobs(400, 50, 15));
  ExpectRoundTrip(model, OverlappingBlobs(100, 20, 16));
}

TEST(ModelIoTest, FileRoundTrip) {
  DecisionTree tree;
  tree.Fit(SeparableBlobs(60, 60, 17));
  const std::string path =
      (std::filesystem::temp_directory_path() / "spe_model_test.txt").string();
  SaveModelBundleToFile(tree, 2, path);
  const auto loaded = LoadClassifierFromFile(path);
  const Dataset test = SeparableBlobs(20, 20, 18);
  const auto a = tree.PredictProba(test);
  const auto b = loaded->PredictProba(test);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(ModelIoDeathTest, UnsupportedModelAborts) {
  Knn knn;
  knn.Fit(SeparableBlobs(20, 20, 19));
  std::stringstream stream;
  EXPECT_DEATH(SaveClassifier(knn, stream), "persistence");
}

TEST(ModelIoDeathTest, UnfittedModelAborts) {
  DecisionTree tree;
  std::stringstream stream;
  EXPECT_DEATH(SaveClassifier(tree, stream), "unfitted");
}

TEST(ModelIoDeathTest, GarbageStreamAborts) {
  std::stringstream stream("not a model at all");
  EXPECT_DEATH(LoadClassifier(stream), "not an spe model");
}

// ---------------------------------------------------- bundles/integrity

DecisionTree TrainedTree(std::uint64_t seed) {
  DecisionTree tree;
  tree.Fit(SeparableBlobs(60, 60, seed));
  return tree;
}

std::string BundleText(const Classifier& model, std::size_t num_features) {
  std::stringstream stream;
  SaveModelBundle(model, num_features, stream);
  return stream.str();
}

TEST(ModelBundleTest, HeaderCarriesSizeAndChecksum) {
  const DecisionTree tree = TrainedTree(21);
  const std::string text = BundleText(tree, 2);
  EXPECT_EQ(text.rfind("spe-bundle 3 num_features 2 payload_bytes ", 0), 0u);
  EXPECT_NE(text.find(" crc32 "), std::string::npos);
  // A plain tree carries no training hardness profile, so the v3
  // histogram line records an empty histogram.
  EXPECT_NE(text.find("\nhardness_histogram 0\n"), std::string::npos);

  std::stringstream stream(text);
  ModelBundle bundle = LoadModelBundle(stream);
  EXPECT_EQ(bundle.num_features, 2u);
  const Dataset test = SeparableBlobs(20, 20, 22);
  const auto a = tree.PredictProba(test);
  const auto b = bundle.model->PredictProba(test);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ModelBundleTest, FileRoundTripAndNoTmpLeftBehind) {
  const DecisionTree tree = TrainedTree(23);
  const std::string path =
      (std::filesystem::temp_directory_path() / "spe_bundle_test.txt")
          .string();
  SaveModelBundleToFile(tree, 2, path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "publish must consume the tmp file";
  ModelBundle bundle = LoadModelBundleFromFile(path);
  EXPECT_EQ(bundle.num_features, 2u);
  const Dataset test = SeparableBlobs(20, 20, 24);
  const auto a = tree.PredictProba(test);
  const auto b = bundle.model->PredictProba(test);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

// Pre-bundle artifacts (no header, no checksum) are refused, not
// loaded: nothing writes them any more.
TEST(ModelBundleDeathTest, LegacyBareModelIsRefused) {
  const DecisionTree tree = TrainedTree(25);
  std::stringstream stream;
  SaveClassifier(tree, stream);  // pre-bundle artifact: no header at all
  ModelBundle bundle;
  EXPECT_EQ(DecodeModelBundle(stream.str(), &bundle).cls,
            frame::ErrorClass::kBadMagic);
  EXPECT_DEATH(LoadModelBundle(stream), "not an spe model stream");
}

TEST(ModelBundleDeathTest, LegacyV1BundleIsRefused) {
  const DecisionTree tree = TrainedTree(26);
  std::stringstream payload;
  SaveClassifier(tree, payload);
  const std::string v1 = "spe-bundle 1 num_features 2\n" + payload.str();
  ModelBundle bundle;
  EXPECT_EQ(DecodeModelBundle(v1, &bundle).cls,
            frame::ErrorClass::kUnsupportedVersion);
  std::stringstream stream(v1);
  EXPECT_DEATH(LoadModelBundle(stream), "unsupported bundle version");
  // LoadClassifier reads bare payload streams only: no header skipping.
  std::stringstream again(v1);
  EXPECT_DEATH(LoadClassifier(again), "not an spe model stream");
}

TEST(ModelBundleDeathTest, LoadClassifierRefusesBundleHeader) {
  const DecisionTree tree = TrainedTree(27);
  std::stringstream stream(BundleText(tree, 2));
  EXPECT_DEATH(LoadClassifier(stream), "not an spe model stream");
}

TEST(ModelBundleDeathTest, TruncatedPayloadIsRejected) {
  const std::string text = BundleText(TrainedTree(28), 2);
  // Drop the tail of the payload: the header's byte count catches it
  // before any parsing happens.
  std::stringstream truncated(text.substr(0, text.size() - 10));
  EXPECT_DEATH(LoadModelBundle(truncated), "model artifact truncated");
}

TEST(ModelBundleDeathTest, BitFlippedPayloadIsRejected) {
  std::string text = BundleText(TrainedTree(29), 2);
  // Flip one bit in the middle of the payload; the length still
  // matches, so only the checksum can catch it.
  text[text.size() - text.size() / 4] ^= 0x01;
  std::stringstream corrupted(text);
  EXPECT_DEATH(LoadModelBundle(corrupted), "model artifact corrupted");
}

TEST(ModelBundleDeathTest, InjectedWriteFaultLeavesArtifactIntact) {
  const DecisionTree tree = TrainedTree(30);
  const std::string path =
      (std::filesystem::temp_directory_path() / "spe_bundle_fault_test.txt")
          .string();
  SaveModelBundleToFile(tree, 2, path);
  const auto published = std::filesystem::last_write_time(path);

  // The fault is configured inside the death statement, so only the
  // forked child fails its save; this process's registry stays clean.
  const DecisionTree replacement = TrainedTree(31);
  EXPECT_DEATH(
      {
        FaultConfig faulty;
        faulty.model_io_fail_rate = 1.0;
        FaultRegistry::Instance().Configure(faulty);
        SaveModelBundleToFile(replacement, 2, path);
      },
      "injected fault: model artifact write failed");

  // Crash-safety contract: the published artifact is byte-for-byte the
  // old one and still loads cleanly.
  EXPECT_EQ(std::filesystem::last_write_time(path), published);
  ModelBundle bundle = LoadModelBundleFromFile(path);
  const Dataset test = SeparableBlobs(20, 20, 32);
  const auto a = tree.PredictProba(test);
  const auto b = bundle.model->PredictProba(test);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(ModelBundleDeathTest, InjectedReadFaultFailsLoad) {
  const DecisionTree tree = TrainedTree(33);
  const std::string path =
      (std::filesystem::temp_directory_path() / "spe_bundle_read_fault.txt")
          .string();
  SaveModelBundleToFile(tree, 2, path);
  EXPECT_DEATH(
      {
        FaultConfig faulty;
        faulty.model_io_fail_rate = 1.0;
        FaultRegistry::Instance().Configure(faulty);
        LoadModelBundleFromFile(path);
      },
      "injected fault: model artifact read failed");
  std::remove(path.c_str());
}

TEST(ModelIoDeathTest, VotingModelRefusesToRetrain) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 2;
  SelfPacedEnsemble spe_model(config);
  const Dataset train = OverlappingBlobs(100, 20, 20);
  spe_model.Fit(train);
  std::stringstream stream;
  SaveClassifier(spe_model, stream);
  auto loaded = LoadClassifier(stream);
  EXPECT_DEATH(loaded->Fit(train), "inference-only");
}

}  // namespace
}  // namespace spe
