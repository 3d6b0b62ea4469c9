#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spe/sampling/adasyn.h"
#include "spe/sampling/all_knn.h"
#include "spe/sampling/borderline_smote.h"
#include "spe/sampling/enn.h"
#include "spe/sampling/near_miss.h"
#include "spe/sampling/ncr.h"
#include "spe/sampling/neighbors.h"
#include "spe/sampling/one_side_selection.h"
#include "spe/sampling/random_over.h"
#include "spe/sampling/random_under.h"
#include "spe/sampling/sampler_factory.h"
#include "spe/sampling/smote.h"
#include "spe/sampling/smote_enn.h"
#include "spe/sampling/smote_tomek.h"
#include "spe/sampling/tomek_links.h"
#include "tests/test_util.h"

namespace spe {
namespace {

using ::spe::testing::OverlappingBlobs;
using ::spe::testing::SeparableBlobs;

// ------------------------------------------------------------ Neighbors --

TEST(NeighborIndexTest, FindsExactNeighborsOnALine) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.AddRow(std::vector<double>{static_cast<double>(i)}, i % 2);
  }
  const NeighborIndex index(data);
  const auto nn = index.Nearest(5, 2);
  ASSERT_EQ(nn.size(), 2u);
  // 4 and 6 are equidistant; both must be the two nearest.
  EXPECT_TRUE((nn[0] == 4 && nn[1] == 6) || (nn[0] == 6 && nn[1] == 4));
  const auto nn3 = index.Nearest(0, 3);
  EXPECT_EQ(nn3, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(NeighborIndexTest, NearestAmongRestrictsCandidates) {
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.AddRow(std::vector<double>{static_cast<double>(i)}, 0);
  }
  const NeighborIndex index(data);
  const std::vector<std::size_t> candidates = {0, 9};
  const auto nn = index.NearestAmong(2, candidates, 1);
  EXPECT_EQ(nn, (std::vector<std::size_t>{0}));
}

TEST(NeighborIndexTest, AllNearestMatchesPerRowQueries) {
  const Dataset data = OverlappingBlobs(40, 20, 1);
  const NeighborIndex index(data);
  const auto all = index.AllNearest(3);
  ASSERT_EQ(all.size(), data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_EQ(all[i], index.Nearest(i, 3));
  }
}

TEST(NeighborIndexDeathTest, RejectsCategoricalFeatures) {
  Dataset data(2);
  data.set_feature_kind(0, FeatureKind::kCategorical);
  data.AddRow(std::vector<double>{1.0, 2.0}, 0);
  EXPECT_DEATH(NeighborIndex{data}, "numeric feature space");
}

// ------------------------------------------------------ Under-sampling --

TEST(RandomUnderTest, BalancesExactly) {
  const Dataset data = SeparableBlobs(500, 50, 2);
  Rng rng(1);
  const Dataset out = RandomUnderSampler().Resample(data, rng);
  EXPECT_EQ(out.num_rows(), 100u);
  EXPECT_EQ(out.CountPositives(), 50u);
}

TEST(RandomUnderTest, KeepsEveryMinority) {
  Dataset data(1);
  for (int i = 0; i < 100; ++i) {
    data.AddRow(std::vector<double>{static_cast<double>(i)}, i < 10);
  }
  Rng rng(2);
  const Dataset out = RandomUnderSampler().Resample(data, rng);
  std::set<double> minority_values;
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    if (out.Label(i) == 1) minority_values.insert(out.At(i, 0));
  }
  EXPECT_EQ(minority_values.size(), 10u);
}

TEST(RandomUnderTest, RatioControlsMajorityCount) {
  const Dataset data = SeparableBlobs(500, 50, 3);
  Rng rng(3);
  const Dataset out = RandomUnderSampler(3.0).Resample(data, rng);
  EXPECT_EQ(out.CountNegatives(), 150u);
}

TEST(NearMissTest, PicksMajorityClosestToMinority) {
  // Majority at 0..9 on a line, minority at 100 and 101. NearMiss keeps
  // the 2 majority samples with smallest mean distance to the minority:
  // 8 and 9.
  Dataset data(1);
  for (int i = 0; i < 10; ++i) {
    data.AddRow(std::vector<double>{static_cast<double>(i)}, 0);
  }
  data.AddRow(std::vector<double>{100.0}, 1);
  data.AddRow(std::vector<double>{101.0}, 1);
  Rng rng(4);
  const Dataset out = NearMissSampler(2).Resample(data, rng);
  EXPECT_EQ(out.num_rows(), 4u);
  std::set<double> majority_values;
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    if (out.Label(i) == 0) majority_values.insert(out.At(i, 0));
  }
  EXPECT_EQ(majority_values, (std::set<double>{8.0, 9.0}));
}

TEST(EnnTest, RemovesMajorityInsideMinorityCluster) {
  // A lone majority point surrounded by minority must be edited out.
  Dataset data(2);
  Rng gen(5);
  for (int i = 0; i < 30; ++i) {
    data.AddRow(std::vector<double>{gen.Gaussian(0, 0.1), gen.Gaussian(0, 0.1)}, 1);
  }
  data.AddRow(std::vector<double>{0.0, 0.0}, 0);  // intruder
  for (int i = 0; i < 30; ++i) {
    data.AddRow(std::vector<double>{gen.Gaussian(5, 0.1), gen.Gaussian(5, 0.1)}, 0);
  }
  Rng rng(6);
  const Dataset out = EnnSampler().Resample(data, rng);
  EXPECT_EQ(out.num_rows(), 60u);
  EXPECT_EQ(out.CountPositives(), 30u);  // minority untouched
}

TEST(EnnTest, MajorityOnlyFlagProtectsMinority) {
  // A lone minority point inside the majority cluster: kept when
  // majority_only, dropped when editing both classes.
  Dataset data(2);
  Rng gen(7);
  for (int i = 0; i < 40; ++i) {
    data.AddRow(std::vector<double>{gen.Gaussian(0, 0.1), gen.Gaussian(0, 0.1)}, 0);
  }
  data.AddRow(std::vector<double>{0.0, 0.0}, 1);
  Rng rng(8);
  EXPECT_EQ(EnnSampler(3, true).Resample(data, rng).CountPositives(), 1u);
  EXPECT_EQ(EnnSampler(3, false).Resample(data, rng).CountPositives(), 0u);
}

TEST(TomekLinksTest, RemovesMajorityMemberOfLink) {
  Dataset data(1);
  data.AddRow(std::vector<double>{0.0}, 0);
  data.AddRow(std::vector<double>{1.0}, 0);
  data.AddRow(std::vector<double>{1.6}, 1);   // link with row 1
  data.AddRow(std::vector<double>{10.0}, 1);
  Rng rng(9);
  const Dataset out = TomekLinksSampler().Resample(data, rng);
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.CountPositives(), 2u);  // only the majority member dropped
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_NE(out.At(i, 0), 1.0);
  }
}

TEST(TomekLinksTest, NoLinksNoChanges) {
  const Dataset data = SeparableBlobs(50, 50, 10);  // far-apart blobs
  Rng rng(11);
  const Dataset out = TomekLinksSampler().Resample(data, rng);
  EXPECT_EQ(out.num_rows(), data.num_rows());
}

TEST(AllKnnTest, RemovesAtLeastAsMuchAsEnn) {
  const Dataset data = OverlappingBlobs(300, 100, 12);
  Rng rng(13);
  const Dataset enn = EnnSampler(3).Resample(data, rng);
  const Dataset allknn = AllKnnSampler(3).Resample(data, rng);
  EXPECT_LE(allknn.num_rows(), enn.num_rows());
  EXPECT_EQ(allknn.CountPositives(), data.CountPositives());
}

TEST(OssTest, KeepsAllMinorityAndShrinksMajority) {
  const Dataset data = OverlappingBlobs(400, 50, 14);
  Rng rng(15);
  const Dataset out = OneSideSelectionSampler().Resample(data, rng);
  EXPECT_EQ(out.CountPositives(), 50u);
  EXPECT_LT(out.CountNegatives(), 400u);
}

TEST(NcrTest, CleansButDoesNotBalance) {
  const Dataset data = OverlappingBlobs(400, 50, 16);
  Rng rng(17);
  const Dataset out = NcrSampler().Resample(data, rng);
  EXPECT_EQ(out.CountPositives(), 50u);
  EXPECT_LT(out.CountNegatives(), 400u);
  // The signature property the paper calls out: output stays imbalanced.
  EXPECT_GT(out.ImbalanceRatio(), 2.0);
}

// ------------------------------------------------------- Over-sampling --

TEST(RandomOverTest, DuplicatesToBalance) {
  const Dataset data = SeparableBlobs(300, 30, 18);
  Rng rng(19);
  const Dataset out = RandomOverSampler().Resample(data, rng);
  EXPECT_EQ(out.CountPositives(), 300u);
  EXPECT_EQ(out.CountNegatives(), 300u);
  // Every synthetic positive must be an exact copy of an original.
  std::set<std::pair<double, double>> originals;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    if (data.Label(i) == 1) originals.insert({data.At(i, 0), data.At(i, 1)});
  }
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    if (out.Label(i) == 1) {
      EXPECT_TRUE(originals.count({out.At(i, 0), out.At(i, 1)}));
    }
  }
}

TEST(SmoteTest, BalancesWithInterpolatedSamples) {
  const Dataset data = SeparableBlobs(200, 20, 20);
  Rng rng(21);
  const Dataset out = SmoteSampler().Resample(data, rng);
  EXPECT_EQ(out.CountPositives(), 200u);
  EXPECT_EQ(out.CountNegatives(), 200u);
}

TEST(SmoteTest, SyntheticSamplesLieInMinorityBoundingBox) {
  // Convex interpolation cannot leave the minority bounding box.
  const Dataset data = SeparableBlobs(100, 30, 22);
  double lo0 = 1e9, hi0 = -1e9, lo1 = 1e9, hi1 = -1e9;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    if (data.Label(i) != 1) continue;
    lo0 = std::min(lo0, data.At(i, 0));
    hi0 = std::max(hi0, data.At(i, 0));
    lo1 = std::min(lo1, data.At(i, 1));
    hi1 = std::max(hi1, data.At(i, 1));
  }
  Rng rng(23);
  const Dataset out = SmoteSampler().Resample(data, rng);
  for (std::size_t i = data.num_rows(); i < out.num_rows(); ++i) {
    ASSERT_EQ(out.Label(i), 1);
    EXPECT_GE(out.At(i, 0), lo0 - 1e-9);
    EXPECT_LE(out.At(i, 0), hi0 + 1e-9);
    EXPECT_GE(out.At(i, 1), lo1 - 1e-9);
    EXPECT_LE(out.At(i, 1), hi1 + 1e-9);
  }
}

TEST(SmoteTest, AlreadyBalancedIsUntouched) {
  const Dataset data = SeparableBlobs(50, 50, 24);
  Rng rng(25);
  EXPECT_EQ(SmoteSampler().Resample(data, rng).num_rows(), 100u);
}

TEST(AdasynTest, ConcentratesSynthesisOnBorderline) {
  // Two minority groups: one deep inside the majority cloud (hard), one
  // far away (easy). ADASYN must synthesize more around the hard one.
  Dataset data(1);
  Rng gen(26);
  for (int i = 0; i < 200; ++i) {
    data.AddRow(std::vector<double>{gen.Gaussian(0.0, 1.0)}, 0);
  }
  for (int i = 0; i < 10; ++i) {
    data.AddRow(std::vector<double>{gen.Gaussian(0.0, 0.3)}, 1);  // hard
  }
  for (int i = 0; i < 10; ++i) {
    data.AddRow(std::vector<double>{gen.Gaussian(50.0, 0.3)}, 1);  // easy
  }
  Rng rng(27);
  const Dataset out = AdasynSampler().Resample(data, rng);
  std::size_t near_hard = 0;
  std::size_t near_easy = 0;
  for (std::size_t i = data.num_rows(); i < out.num_rows(); ++i) {
    (out.At(i, 0) < 25.0 ? near_hard : near_easy) += 1;
  }
  EXPECT_GT(near_hard, 5 * std::max<std::size_t>(near_easy, 1));
}

TEST(BorderlineSmoteTest, BalancesAndSeedsFromDangerZone) {
  const Dataset data = OverlappingBlobs(300, 30, 28);
  Rng rng(29);
  const Dataset out = BorderlineSmoteSampler().Resample(data, rng);
  EXPECT_EQ(out.CountPositives(), out.CountNegatives());
}

// ------------------------------------------------------------- Hybrids --

TEST(SmoteEnnTest, NearBalanceAfterCleaning) {
  const Dataset data = OverlappingBlobs(300, 30, 30);
  Rng rng(31);
  const Dataset out = SmoteEnnSampler().Resample(data, rng);
  // ENN removes from both classes; result is near-balanced, not exact.
  const double ratio = static_cast<double>(out.CountPositives()) /
                       static_cast<double>(out.CountNegatives());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(SmoteTomekTest, RemovesOnlyMajorityAfterSmote) {
  const Dataset data = OverlappingBlobs(300, 30, 32);
  Rng rng(33);
  const Dataset out = SmoteTomekSampler().Resample(data, rng);
  EXPECT_EQ(out.CountPositives(), 300u);
  EXPECT_LE(out.CountNegatives(), 300u);
}

// ------------------------------------------------------------- Factory --

class SamplerFactoryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SamplerFactoryTest, EverySamplerRunsOnNumericData) {
  const Dataset data = OverlappingBlobs(200, 25, 34);
  auto sampler = MakeSampler(GetParam());
  EXPECT_EQ(sampler->Name(), GetParam());
  Rng rng(35);
  const Dataset out = sampler->Resample(data, rng);
  EXPECT_GT(out.num_rows(), 0u);
  EXPECT_GT(out.CountPositives(), 0u);
}

TEST_P(SamplerFactoryTest, DeterministicGivenSeed) {
  const Dataset data = OverlappingBlobs(150, 20, 36);
  auto sampler = MakeSampler(GetParam());
  Rng rng_a(37);
  Rng rng_b(37);
  const Dataset a = sampler->Resample(data, rng_a);
  const Dataset b = sampler->Resample(data, rng_b);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.Label(i), b.Label(i));
    EXPECT_DOUBLE_EQ(a.At(i, 0), b.At(i, 0));
  }
}

// The nine pure under-samplers keep a row subset (SelectIndices returns
// true) and the eight synthesizers do not. Where SelectIndices answers,
// Resample is Subset(keep) byte for byte and leaves the Rng where
// SelectIndices left it.
TEST_P(SamplerFactoryTest, ResampleIsTheSubsetSelectIndicesKeeps) {
  const std::set<std::string> under_samplers = {
      "RandUnder", "NearMiss", "Clean", "ENN", "TomekLink",
      "AllKNN",    "OSS",      "CNN",   "IHT"};
  const Dataset data = OverlappingBlobs(200, 25, 38);
  auto sampler = MakeSampler(GetParam());
  Rng select_rng(39);
  std::vector<std::size_t> keep;
  const bool subset = sampler->SelectIndices(data, select_rng, &keep);
  ASSERT_EQ(subset, under_samplers.count(GetParam()) > 0);
  if (!subset) {
    EXPECT_TRUE(keep.empty());
    return;
  }
  Rng resample_rng(39);
  const Dataset out = sampler->Resample(data, resample_rng);
  const Dataset expected = data.Subset(keep);
  ASSERT_EQ(out.num_rows(), expected.num_rows());
  ASSERT_EQ(out.num_features(), expected.num_features());
  for (std::size_t j = 0; j < out.num_features(); ++j) {
    EXPECT_EQ(std::memcmp(out.Column(j).values.data(),
                          expected.Column(j).values.data(),
                          out.num_rows() * sizeof(double)),
              0)
        << "column " << j;
  }
  EXPECT_EQ(out.labels(), expected.labels());
  EXPECT_EQ(resample_rng.Index(1u << 30), select_rng.Index(1u << 30));
}

INSTANTIATE_TEST_SUITE_P(AllSamplers, SamplerFactoryTest,
                         ::testing::ValuesIn(KnownSamplerNames()));

TEST(SamplerFactoryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeSampler("Magic"), "unknown sampler");
}

TEST(SamplerTest, DistanceBasedSamplersDeclareRequirement) {
  EXPECT_TRUE(MakeSampler("SMOTE")->RequiresNumericalFeatures());
  EXPECT_TRUE(MakeSampler("Clean")->RequiresNumericalFeatures());
  EXPECT_FALSE(MakeSampler("RandUnder")->RequiresNumericalFeatures());
  EXPECT_FALSE(MakeSampler("RandOver")->RequiresNumericalFeatures());
}

}  // namespace
}  // namespace spe
