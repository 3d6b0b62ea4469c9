#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/classifiers/decision_tree.h"
#include "spe/classifiers/factory.h"
#include "spe/core/self_paced_ensemble.h"
#include "spe/eval/cross_validation.h"
#include "spe/io/model_io.h"
#include "spe/metrics/metrics.h"
#include "spe/sampling/random_under.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using ::spe::testing::SeparableBlobs;

TEST(AlphaScheduleTest, TanStartsAtZeroEndsAtInfinity) {
  EXPECT_DOUBLE_EQ(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, 1, 10), 0.0);
  EXPECT_TRUE(std::isinf(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, 10, 10)));
  // Strictly increasing in between.
  double prev = -1.0;
  for (std::size_t i = 1; i < 10; ++i) {
    const double a = SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, i, 10);
    EXPECT_GT(a, prev);
    prev = a;
  }
}

TEST(AlphaScheduleTest, SingleEstimatorGetsInfinity) {
  EXPECT_TRUE(std::isinf(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kTan, 1, 1)));
}

TEST(AlphaScheduleTest, AblationSchedules) {
  EXPECT_DOUBLE_EQ(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kZero, 5, 10), 0.0);
  EXPECT_TRUE(
      std::isinf(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kInfinity, 1, 10)));
  EXPECT_DOUBLE_EQ(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kLinear, 1, 11), 0.0);
  EXPECT_DOUBLE_EQ(SelfPacedEnsemble::AlphaAt(AlphaSchedule::kLinear, 11, 11),
                   10.0);
}

TEST(SelfPacedEnsembleTest, TrainsConfiguredNumberOfMembers) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 7;
  SelfPacedEnsemble spe(config);
  spe.Fit(OverlappingBlobs(500, 50, 1));
  EXPECT_EQ(spe.NumMembers(), 7u);
  EXPECT_EQ(spe.Name(), "SPE7");
}

TEST(SelfPacedEnsembleTest, IncludeBootstrapAddsOneMember) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  config.include_bootstrap_model = true;
  SelfPacedEnsemble spe(config);
  spe.Fit(OverlappingBlobs(300, 30, 2));
  EXPECT_EQ(spe.NumMembers(), 6u);
}

TEST(SelfPacedEnsembleTest, LearnsImbalancedOverlappingData) {
  const Dataset train = OverlappingBlobs(2000, 60, 3);
  const Dataset test = OverlappingBlobs(1000, 30, 4);
  SelfPacedEnsembleConfig config;
  config.seed = 5;
  SelfPacedEnsemble spe(config);
  spe.Fit(train);
  // Heavy overlap caps even the Bayes-optimal scorer near 0.38 AUCPRC
  // here; demand a clear multiple of the ~0.03 positive prevalence.
  EXPECT_GT(AucPrc(test.labels(), spe.PredictProba(test)), 0.09);
}

TEST(SelfPacedEnsembleTest, BeatsSingleRandUnderModelOnAverage) {
  // The paper's headline claim at miniature scale: SPE10 should beat one
  // tree trained on one random balanced subset. Averaged over seeds to
  // keep the test robust.
  double spe_total = 0.0;
  double rand_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Dataset train = OverlappingBlobs(3000, 50, 100 + seed);
    const Dataset test = OverlappingBlobs(1500, 25, 200 + seed);

    SelfPacedEnsembleConfig config;
    config.seed = seed;
    SelfPacedEnsemble spe(config);
    spe.Fit(train);
    spe_total += AucPrc(test.labels(), spe.PredictProba(test));

    Rng rng(seed);
    const Dataset balanced = RandomUnderSampler().Resample(train, rng);
    DecisionTreeConfig tree_config;
    tree_config.max_depth = 10;
    DecisionTree tree(tree_config);
    tree.Fit(balanced);
    rand_total += AucPrc(test.labels(), tree.PredictProba(test));
  }
  EXPECT_GT(spe_total, rand_total);
}

TEST(SelfPacedEnsembleTest, DeterministicGivenSeed) {
  const Dataset train = OverlappingBlobs(400, 40, 6);
  const Dataset test = OverlappingBlobs(100, 20, 7);
  SelfPacedEnsembleConfig config;
  config.seed = 11;
  SelfPacedEnsemble a(config);
  SelfPacedEnsemble b(config);
  a.Fit(train);
  b.Fit(train);
  const auto pa = a.PredictProba(test);
  const auto pb = b.PredictProba(test);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(SelfPacedEnsembleTest, ReseedChangesResult) {
  const Dataset train = OverlappingBlobs(400, 40, 8);
  const Dataset test = OverlappingBlobs(100, 20, 9);
  SelfPacedEnsemble a;
  SelfPacedEnsemble b;
  b.Reseed(12345);
  a.Fit(train);
  b.Fit(train);
  const auto pa = a.PredictProba(test);
  const auto pb = b.PredictProba(test);
  double diff = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) diff += std::abs(pa[i] - pb[i]);
  EXPECT_GT(diff, 1e-9);
}

TEST(SelfPacedEnsembleTest, CallbackSeesBalancedSubsetsAndGrowingEnsemble) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 6;
  SelfPacedEnsemble spe(config);
  const Dataset train = OverlappingBlobs(800, 40, 10);
  std::size_t calls = 0;
  spe.set_iteration_callback([&](const IterationInfo& info) {
    ++calls;
    EXPECT_EQ(info.iteration, calls);
    EXPECT_EQ(info.ensemble.size(), calls);
    // Each subset is balanced: all 40 minority + 40 self-paced majority.
    EXPECT_EQ(info.training_subset.CountPositives(), 40u);
    EXPECT_EQ(info.training_subset.CountNegatives(), 40u);
  });
  spe.Fit(train);
  EXPECT_EQ(calls, 6u);
}

TEST(SelfPacedEnsembleTest, FitWithValidationKeepsBestPrefix) {
  const Dataset train = OverlappingBlobs(800, 60, 30);
  const Dataset validation = OverlappingBlobs(400, 30, 31);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 10;
  config.seed = 4;
  SelfPacedEnsemble model(config);
  const std::size_t kept = model.FitWithValidation(train, validation);
  EXPECT_GE(kept, 1u);
  EXPECT_LE(kept, 10u);
  EXPECT_EQ(model.NumMembers(), kept);

  // The kept prefix must be at least as good on validation as the full
  // 10-member ensemble trained identically.
  SelfPacedEnsemble full(config);
  full.Fit(train);
  EXPECT_GE(AucPrc(validation.labels(), model.PredictProba(validation)),
            AucPrc(validation.labels(), full.PredictProba(validation)) - 1e-12);
}

TEST(SelfPacedEnsembleTest, FitWithValidationChainsUserCallback) {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 4;
  SelfPacedEnsemble model(config);
  std::size_t calls = 0;
  model.set_iteration_callback([&](const IterationInfo&) { ++calls; });
  model.FitWithValidation(OverlappingBlobs(300, 30, 32),
                          OverlappingBlobs(150, 15, 33));
  EXPECT_EQ(calls, 4u);
}

// FitWithValidation must keep exactly the argmax prefix of the full
// ensemble, under both include_bootstrap_model settings. Fit is
// deterministic given the seed, and the incremental validation score
// inside FitWithValidation accumulates member probabilities in the same
// fixed order (and divides the same way) as PredictProbaPrefix, so the
// two curves are bit-identical and the argmax must agree exactly —
// first-best wins ties in both.
class SpeValidationTruncationTest : public ::testing::TestWithParam<bool> {};

TEST_P(SpeValidationTruncationTest, KeepsArgmaxPrefixOfFullEnsemble) {
  const Dataset train = OverlappingBlobs(900, 45, 40);
  const Dataset validation = OverlappingBlobs(450, 25, 41);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 8;
  config.include_bootstrap_model = GetParam();
  config.seed = 9;

  SelfPacedEnsemble full(config);
  full.Fit(train);
  EXPECT_EQ(full.NumMembers(), GetParam() ? 9u : 8u);
  std::size_t expected = 0;
  double best = -1.0;
  for (std::size_t k = 1; k <= full.NumMembers(); ++k) {
    const double auc =
        AucPrc(validation.labels(), full.PredictProbaPrefix(validation, k));
    if (auc > best) {
      best = auc;
      expected = k;
    }
  }

  // The regression this guards: with the bootstrap model included, the
  // old code skipped truncation entirely and returned the full ensemble
  // no matter what the validation curve said.
  SelfPacedEnsemble model(config);
  const std::size_t kept = model.FitWithValidation(train, validation);
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(model.NumMembers(), kept);
  const auto expected_probs = full.PredictProbaPrefix(validation, kept);
  const auto actual_probs = model.PredictProba(validation);
  for (std::size_t i = 0; i < actual_probs.size(); ++i) {
    EXPECT_EQ(actual_probs[i], expected_probs[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(BootstrapAblation, SpeValidationTruncationTest,
                         ::testing::Bool());

// Base learner that throws on its Nth Fit across all clones — lets a
// test blow up ensemble training partway through.
class ThrowingBase final : public Classifier {
 public:
  ThrowingBase(std::shared_ptr<std::size_t> fits, std::size_t throw_on)
      : fits_(std::move(fits)), throw_on_(throw_on) {}
  void Fit(const DatasetView& train) override {
    if (++*fits_ == throw_on_) throw std::runtime_error("injected fit failure");
    tree_.Fit(train);
  }
  double PredictRow(std::span<const double> x) const override {
    return tree_.PredictRow(x);
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<ThrowingBase>(fits_, throw_on_);
  }
  std::string Name() const override { return "ThrowingBase"; }

 private:
  std::shared_ptr<std::size_t> fits_;
  std::size_t throw_on_;
  DecisionTree tree_{DecisionTreeConfig{}};
};

TEST(SelfPacedEnsembleTest, FitWithValidationRestoresCallbackAfterThrow) {
  const Dataset train = OverlappingBlobs(400, 40, 42);
  const Dataset validation = OverlappingBlobs(200, 20, 43);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 4;
  // Throw inside the third Fit (bootstrap + f1 succeed): the validation
  // wrapper is installed and has already fired once when Fit unwinds.
  auto fits = std::make_shared<std::size_t>(0);
  SelfPacedEnsemble model(config, std::make_unique<ThrowingBase>(fits, 3));
  std::size_t user_calls = 0;
  model.set_iteration_callback([&](const IterationInfo&) { ++user_calls; });
  EXPECT_THROW(model.FitWithValidation(train, validation), std::runtime_error);

  // The wrapper captured locals of the FitWithValidation frame that just
  // died; if it were still installed, this Fit would invoke a dangling
  // closure (ASan flags it). The scope guard must have put the user
  // callback back.
  const std::size_t calls_before_refit = user_calls;
  model.Fit(train);
  EXPECT_EQ(user_calls, calls_before_refit + 4);
}

// Base learner whose probabilities are NaN: Fit must abort naming the
// offending member instead of letting NaN poison the hardness updates.
class NanBase final : public Classifier {
 public:
  void Fit(const DatasetView&) override {}
  double PredictRow(std::span<const double>) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<NanBase>();
  }
  std::string Name() const override { return "NanBase"; }
};

TEST(SelfPacedEnsembleDeathTest, NanProbabilityNamesTheMember) {
  SelfPacedEnsemble model(SelfPacedEnsembleConfig{},
                          std::make_unique<NanBase>());
  EXPECT_DEATH(model.Fit(OverlappingBlobs(200, 20, 44)),
               "member 0 produced NaN probability");
}

// Base learner that turns NaN from its second Fit on (the count is
// shared by its clones): the bootstrap f0 scores cleanly and f1 does not,
// so the check after f1's probabilities join the running sum must name
// member 1, not the state that was already checked.
class LateNanBase final : public Classifier {
 public:
  explicit LateNanBase(std::shared_ptr<std::size_t> fits)
      : fits_(std::move(fits)) {}
  void Fit(const DatasetView&) override { ++*fits_; }
  double PredictRow(std::span<const double> x) const override {
    return *fits_ >= 2 ? std::numeric_limits<double>::quiet_NaN()
                       : (x[0] > 0.0 ? 0.75 : 0.25);
  }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<LateNanBase>(fits_);
  }
  std::string Name() const override { return "LateNanBase"; }

 private:
  std::shared_ptr<std::size_t> fits_;
};

TEST(SelfPacedEnsembleDeathTest, NanProbabilityNamesALaterMember) {
  SelfPacedEnsemble model(
      SelfPacedEnsembleConfig{},
      std::make_unique<LateNanBase>(std::make_shared<std::size_t>(0)));
  EXPECT_DEATH(model.Fit(OverlappingBlobs(200, 20, 45)),
               "member 1 produced NaN probability");
}

TEST(SelfPacedEnsembleDeathTest, FitWithValidationNeedsPositives) {
  Dataset validation(2);
  validation.AddRow(std::vector<double>{0.0, 0.0}, 0);
  SelfPacedEnsemble model;
  EXPECT_DEATH(model.FitWithValidation(OverlappingBlobs(100, 10, 34), validation),
               "positives");
}

TEST(SelfPacedEnsembleTest, CloneIsIndependentAndUntrained) {
  SelfPacedEnsemble spe;
  spe.Fit(OverlappingBlobs(200, 20, 11));
  auto clone = spe.Clone();
  const std::vector<double> x = {0.0, 0.0};
  EXPECT_DEATH(clone->PredictRow(x), "");
}

// SPE must wrap every canonical classifier (the paper's applicability
// claim): parameterized over the whole factory.
// ------------------------------------------------ indexed training views
//
// Fit keys its state by the m-th label-0 row of the training view and
// reaches every row through RowIndex, in blocks of thousands of rows.
// The artifact must depend only on the viewed rows and their order: a
// fit on an indexed view equals a fit on the view's Materialize(), in
// artifact bytes and in the drift baseline. The parents below span
// several blocks.

std::string Artifact(const SelfPacedEnsemble& model) {
  std::ostringstream os;
  SaveModelBundle(model, 2, os);
  return os.str();
}

void ExpectFitMatchesMaterialized(const SelfPacedEnsembleConfig& config,
                                  const DatasetView& view,
                                  const Dataset* validation = nullptr) {
  const Dataset copy = view.Materialize();
  SelfPacedEnsemble on_view(config);
  SelfPacedEnsemble on_copy(config);
  // Every pick must be a label-0 row: all |P| positives plus
  // min(|N|, |P|) negatives per subset.
  const std::size_t num_pos = view.CountPositives();
  const std::size_t num_neg = view.CountNegatives();
  on_view.set_iteration_callback([&](const IterationInfo& info) {
    EXPECT_EQ(info.training_subset.CountPositives(), num_pos);
    EXPECT_EQ(info.training_subset.CountNegatives(),
              std::min(num_neg, num_pos));
  });
  if (validation != nullptr) {
    EXPECT_EQ(on_view.FitWithValidation(view, *validation),
              on_copy.FitWithValidation(copy, *validation));
  } else {
    on_view.Fit(view);
    on_copy.Fit(copy);
  }
  EXPECT_EQ(Artifact(on_view), Artifact(on_copy));
  const HardnessHistogram* got = on_view.training_hardness();
  const HardnessHistogram* want = on_copy.training_hardness();
  ASSERT_EQ(got == nullptr, want == nullptr);
  EXPECT_EQ(got == nullptr, static_cast<bool>(config.custom_hardness));
  if (got == nullptr) return;
  EXPECT_EQ(got->kind, want->kind);
  EXPECT_EQ(got->min, want->min);
  EXPECT_EQ(got->max, want->max);
  EXPECT_EQ(got->counts, want->counts);
  EXPECT_EQ(got->total(), view.CountNegatives());
}

std::vector<std::size_t> ShuffledRows(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  Rng rng(seed);
  rng.Shuffle(rows);
  return rows;
}

SelfPacedEnsembleConfig ViewConfig() {
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  config.seed = 3;
  return config;
}

TEST(SpeIndexedViewTest, ShuffledViewMatchesMaterialized) {
  const Dataset data = OverlappingBlobs(18000, 1800, 61);
  const std::vector<std::size_t> rows = ShuffledRows(data.num_rows(), 62);
  ExpectFitMatchesMaterialized(ViewConfig(), DatasetView(data, rows));
}

TEST(SpeIndexedViewTest, RepeatedRowsMatchMaterialized) {
  const Dataset data = OverlappingBlobs(18000, 1800, 63);
  std::vector<std::size_t> rows;
  for (std::size_t i = data.num_rows(); i-- > 0;) {
    rows.push_back(i);
    if (i % 3 == 0) rows.push_back(i);
    if (i % 7 == 0) rows.push_back(data.num_rows() - 1 - i);
  }
  ExpectFitMatchesMaterialized(ViewConfig(), DatasetView(data, rows));
}

TEST(SpeIndexedViewTest, CrossValidationFoldMatchesMaterialized) {
  const Dataset data = OverlappingBlobs(18000, 1800, 64);
  Rng rng(65);
  const std::vector<std::size_t> folds = StratifiedFolds(data, 5, rng);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    if (folds[i] != 2) rows.push_back(i);
  }
  ExpectFitMatchesMaterialized(ViewConfig(), DatasetView(data, rows));
}

TEST(SpeIndexedViewTest, FewerMajorityThanMinorityMatchesMaterialized) {
  const Dataset data = OverlappingBlobs(900, 1200, 66);
  const std::vector<std::size_t> rows = ShuffledRows(data.num_rows(), 67);
  ExpectFitMatchesMaterialized(ViewConfig(), DatasetView(data, rows));
}

TEST(SpeIndexedViewTest, BootstrapMemberMatchesMaterialized) {
  const Dataset data = OverlappingBlobs(18000, 1800, 68);
  const std::vector<std::size_t> rows = ShuffledRows(data.num_rows(), 69);
  SelfPacedEnsembleConfig config = ViewConfig();
  config.include_bootstrap_model = true;
  ExpectFitMatchesMaterialized(config, DatasetView(data, rows));
}

TEST(SpeIndexedViewTest, CustomHardnessMatchesMaterialized) {
  const Dataset data = OverlappingBlobs(18000, 1800, 70);
  const std::vector<std::size_t> rows = ShuffledRows(data.num_rows(), 71);
  SelfPacedEnsembleConfig config = ViewConfig();
  config.custom_hardness = [](double prob, int label) {
    return std::sqrt(std::abs(prob - label));
  };
  ExpectFitMatchesMaterialized(config, DatasetView(data, rows));
}

TEST(SpeIndexedViewTest, FitWithValidationMatchesMaterialized) {
  const Dataset data = OverlappingBlobs(18000, 1800, 72);
  const Dataset validation = OverlappingBlobs(3000, 300, 73);
  const std::vector<std::size_t> rows = ShuffledRows(data.num_rows(), 74);
  ExpectFitMatchesMaterialized(ViewConfig(), DatasetView(data, rows),
                               &validation);
}

class SpeWithAnyBaseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SpeWithAnyBaseTest, FitsAndScoresReasonably) {
  const Dataset train = SeparableBlobs(600, 30, 12);
  const Dataset test = SeparableBlobs(300, 15, 13);
  SelfPacedEnsembleConfig config;
  config.n_estimators = 5;
  config.seed = 3;
  SelfPacedEnsemble spe(config, MakeClassifier(GetParam(), 1));
  spe.Fit(train);
  const double auc = AucPrc(test.labels(), spe.PredictProba(test));
  EXPECT_GT(auc, 0.9) << "SPE+" << GetParam() << " scored " << auc;
}

INSTANTIATE_TEST_SUITE_P(AllBases, SpeWithAnyBaseTest,
                         ::testing::ValuesIn(KnownClassifierNames()));

// Hardness-function and bin-count robustness (the Fig. 8 claim).
struct SpeHyperParam {
  HardnessKind hardness;
  std::size_t bins;
};

class SpeHyperTest : public ::testing::TestWithParam<SpeHyperParam> {};

TEST_P(SpeHyperTest, RobustAcrossHardnessAndBins) {
  const Dataset train = OverlappingBlobs(1500, 50, 14);
  const Dataset test = OverlappingBlobs(700, 25, 15);
  SelfPacedEnsembleConfig config;
  config.hardness = GetParam().hardness;
  config.num_bins = GetParam().bins;
  config.seed = 2;
  SelfPacedEnsemble spe(config);
  spe.Fit(train);
  // The Bayes-optimal scorer reaches ~0.44 on this overlap level; any
  // hardness function / bin count must stay far above the ~0.034
  // prevalence baseline.
  EXPECT_GT(AucPrc(test.labels(), spe.PredictProba(test)), 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpeHyperTest,
    ::testing::Values(SpeHyperParam{HardnessKind::kAbsoluteError, 5},
                      SpeHyperParam{HardnessKind::kAbsoluteError, 20},
                      SpeHyperParam{HardnessKind::kAbsoluteError, 50},
                      SpeHyperParam{HardnessKind::kSquaredError, 20},
                      SpeHyperParam{HardnessKind::kCrossEntropy, 20}));

// Every alpha-schedule ablation must still train end to end.
class SpeScheduleTest : public ::testing::TestWithParam<AlphaSchedule> {};

TEST_P(SpeScheduleTest, TrainsAndPredicts) {
  SelfPacedEnsembleConfig config;
  config.schedule = GetParam();
  config.n_estimators = 5;
  SelfPacedEnsemble spe(config);
  spe.Fit(OverlappingBlobs(500, 40, 16));
  const Dataset test = OverlappingBlobs(100, 20, 17);
  for (double p : spe.PredictProba(test)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, SpeScheduleTest,
                         ::testing::Values(AlphaSchedule::kTan,
                                           AlphaSchedule::kZero,
                                           AlphaSchedule::kInfinity,
                                           AlphaSchedule::kLinear));

}  // namespace
}  // namespace spe
