#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "spe/data/dataset.h"

namespace spe {
namespace {

Dataset SmallData() {
  Dataset data(2);
  data.AddRow(std::vector<double>{1.0, 2.0}, 0);
  data.AddRow(std::vector<double>{3.0, 4.0}, 1);
  data.AddRow(std::vector<double>{5.0, 6.0}, 0);
  data.AddRow(std::vector<double>{7.0, 8.0}, 0);
  return data;
}

TEST(DatasetTest, BasicAccessors) {
  const Dataset data = SmallData();
  EXPECT_EQ(data.num_rows(), 4u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_DOUBLE_EQ(data.At(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(data.At(2, 1), 6.0);
  EXPECT_EQ(data.Label(1), 1);
  std::vector<double> row(2);
  data.CopyRowTo(3, row);
  EXPECT_EQ(row[1], 8.0);
}

TEST(DatasetTest, SetMutates) {
  Dataset data = SmallData();
  data.Set(0, 1, 99.0);
  EXPECT_DOUBLE_EQ(data.At(0, 1), 99.0);
  data.SetLabel(0, 1);
  EXPECT_EQ(data.Label(0), 1);
}

TEST(DatasetTest, PositiveNegativeIndices) {
  const Dataset data = SmallData();
  EXPECT_EQ(data.PositiveIndices(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(data.NegativeIndices(), (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_EQ(data.CountPositives(), 1u);
  EXPECT_EQ(data.CountNegatives(), 3u);
}

// The class index lists are counted first and allocated once at their
// exact size: grown by push_back, a 200,000-row NegativeIndices ends at
// 2 MiB of capacity for its 1.6 MB of entries.
TEST(DatasetTest, IndexListsHoldExactlyTheirRows) {
  Dataset data(1);
  for (std::size_t i = 0; i < 5000; ++i) {
    data.AddRow(std::vector<double>{static_cast<double>(i)},
                i % 7 == 3 ? 1 : 0);
  }
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < data.num_rows(); i += 3) picks.push_back(i);
  for (std::size_t i = 0; i < data.num_rows(); i += 5) picks.push_back(i);
  const DatasetView identity(data);
  const DatasetView indexed(data, picks);
  const std::vector<std::vector<std::size_t>> lists = {
      data.PositiveIndices(),     data.NegativeIndices(),
      identity.PositiveIndices(), identity.NegativeIndices(),
      indexed.PositiveIndices(),  indexed.NegativeIndices()};
  for (std::size_t k = 0; k < lists.size(); ++k) {
    EXPECT_GT(lists[k].size(), 0u) << k;
    EXPECT_EQ(lists[k].capacity(), lists[k].size()) << k;
  }
  EXPECT_EQ(lists[0], lists[2]);
  EXPECT_EQ(lists[1], lists[3]);
  EXPECT_EQ(lists[0].size() + lists[1].size(), data.num_rows());
  EXPECT_EQ(lists[4].size() + lists[5].size(), picks.size());
  // Indexed views list view rows, in view order.
  for (const std::size_t r : lists[4]) EXPECT_EQ(indexed.Label(r), 1);
  for (const std::size_t r : lists[5]) EXPECT_EQ(indexed.Label(r), 0);
  EXPECT_TRUE(std::is_sorted(lists[4].begin(), lists[4].end()));
  EXPECT_TRUE(std::is_sorted(lists[5].begin(), lists[5].end()));
}

TEST(DatasetTest, ImbalanceRatio) {
  const Dataset data = SmallData();
  EXPECT_DOUBLE_EQ(data.ImbalanceRatio(), 3.0);
}

TEST(DatasetTest, SubsetPreservesOrderAndAllowsDuplicates) {
  const Dataset data = SmallData();
  const std::vector<std::size_t> idx = {2, 0, 2};
  const Dataset sub = data.Subset(idx);
  EXPECT_EQ(sub.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(sub.At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sub.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub.At(2, 0), 5.0);
}

TEST(DatasetTest, SubsetPreservesFeatureKinds) {
  Dataset data = SmallData();
  data.set_feature_kind(1, FeatureKind::kCategorical);
  const std::vector<std::size_t> idx = {0};
  const Dataset sub = data.Subset(idx);
  EXPECT_EQ(sub.feature_kind(1), FeatureKind::kCategorical);
}

TEST(DatasetTest, AppendConcatenates) {
  Dataset a = SmallData();
  const Dataset b = SmallData();
  a.Append(b);
  EXPECT_EQ(a.num_rows(), 8u);
  EXPECT_DOUBLE_EQ(a.At(4, 0), 1.0);
}

TEST(DatasetTest, HasCategoricalFeatures) {
  Dataset data = SmallData();
  EXPECT_FALSE(data.HasCategoricalFeatures());
  data.set_feature_kind(0, FeatureKind::kCategorical);
  EXPECT_TRUE(data.HasCategoricalFeatures());
}

TEST(DatasetTest, SummaryMentionsRowsAndIr) {
  const Dataset data = SmallData();
  const std::string summary = data.Summary();
  EXPECT_NE(summary.find("4 rows"), std::string::npos);
  EXPECT_NE(summary.find("IR"), std::string::npos);
}

TEST(DatasetDeathTest, AddRowRejectsWrongWidth) {
  Dataset data(2);
  EXPECT_DEATH(data.AddRow(std::vector<double>{1.0}, 0), "CHECK");
}

TEST(DatasetDeathTest, AddRowRejectsNonBinaryLabel) {
  Dataset data(1);
  EXPECT_DEATH(data.AddRow(std::vector<double>{1.0}, 2), "binary");
}

TEST(FeatureScalerTest, StandardizesToZeroMeanUnitVariance) {
  Dataset data(1);
  for (double v : {2.0, 4.0, 6.0, 8.0}) {
    data.AddRow(std::vector<double>{v}, 0);
  }
  FeatureScaler scaler;
  scaler.Fit(data);
  const Dataset out = scaler.Transform(data);
  double mean = 0.0;
  for (std::size_t i = 0; i < out.num_rows(); ++i) mean += out.At(i, 0);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-12);
  double var = 0.0;
  for (std::size_t i = 0; i < out.num_rows(); ++i) var += out.At(i, 0) * out.At(i, 0);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-12);
}

TEST(FeatureScalerTest, ConstantColumnMapsToZero) {
  Dataset data(1);
  for (int i = 0; i < 5; ++i) data.AddRow(std::vector<double>{3.0}, 0);
  FeatureScaler scaler;
  scaler.Fit(data);
  const Dataset out = scaler.Transform(data);
  for (std::size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(out.At(i, 0), 0.0);
  }
}

TEST(FeatureScalerTest, CategoricalColumnsPassThrough) {
  Dataset data(2);
  data.set_feature_kind(0, FeatureKind::kCategorical);
  data.AddRow(std::vector<double>{2.0, 10.0}, 0);
  data.AddRow(std::vector<double>{4.0, 20.0}, 1);
  FeatureScaler scaler;
  scaler.Fit(data);
  const Dataset out = scaler.Transform(data);
  EXPECT_DOUBLE_EQ(out.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 4.0);
  EXPECT_NE(out.At(0, 1), 10.0);
}

TEST(FeatureScalerTest, TransformRowMatchesTransform) {
  Dataset data(2);
  data.AddRow(std::vector<double>{1.0, -5.0}, 0);
  data.AddRow(std::vector<double>{3.0, 5.0}, 1);
  data.AddRow(std::vector<double>{5.0, 15.0}, 0);
  FeatureScaler scaler;
  scaler.Fit(data);
  const Dataset out = scaler.Transform(data);
  std::vector<double> in(2);
  std::vector<double> row(2);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    data.CopyRowTo(i, in);
    scaler.TransformRow(in, row);
    EXPECT_DOUBLE_EQ(row[0], out.At(i, 0));
    EXPECT_DOUBLE_EQ(row[1], out.At(i, 1));
  }
}

}  // namespace
}  // namespace spe
