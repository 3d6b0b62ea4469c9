#include "spe/classifiers/gbdt/binning.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "spe/common/check.h"

namespace spe {
namespace gbdt {

void FeatureBinner::Fit(const DatasetView& data, int max_bins) {
  data.CheckAlive();
  SPE_CHECK_GE(max_bins, 2);
  SPE_CHECK_LE(max_bins, 256);
  SPE_CHECK_GT(data.num_rows(), 0u);

  const std::size_t d = data.num_features();
  boundaries_.assign(d, {});
  std::vector<double> values(data.num_rows());
  // Identity views expose each feature as one contiguous columnar
  // slice, so seeding the sort buffer is a straight memcpy; indexed and
  // row-major views gather per element. Either way the multiset of
  // values — and therefore the sorted order and the learned cuts — is
  // identical.
  const DataMatrix* parent = data.identity() ? data.parent() : nullptr;

  for (std::size_t f = 0; f < d; ++f) {
    if (parent != nullptr) {
      std::span<const double> col = parent->Column(f);
      std::copy(col.begin(), col.end(), values.begin());
    } else {
      for (std::size_t i = 0; i < data.num_rows(); ++i) {
        values[i] = data.At(i, f);
      }
    }
    std::sort(values.begin(), values.end());
    std::vector<double>& cuts = boundaries_[f];
    const std::size_t n = values.size();

    // Low-cardinality features (categorical codes, counts): one bin per
    // distinct value, cut at the midpoints. Plain quantile cuts would
    // miss value boundaries that do not land on a quantile index.
    std::vector<double> distinct;
    for (std::size_t i = 0; i < n; ++i) {
      if (distinct.empty() || values[i] != distinct.back()) {
        distinct.push_back(values[i]);
        if (distinct.size() > static_cast<std::size_t>(max_bins)) break;
      }
    }
    if (distinct.size() <= static_cast<std::size_t>(max_bins)) {
      for (std::size_t i = 0; i + 1 < distinct.size(); ++i) {
        cuts.push_back((distinct[i] + distinct[i + 1]) / 2.0);
      }
      continue;
    }

    // Continuous features: cut points between distinct adjacent quantiles.
    for (int b = 1; b < max_bins; ++b) {
      const std::size_t idx =
          static_cast<std::size_t>(static_cast<double>(n) *
                                   static_cast<double>(b) /
                                   static_cast<double>(max_bins));
      if (idx == 0 || idx >= n) continue;
      if (values[idx - 1] == values[idx]) continue;  // same quantile value
      const double cut = (values[idx - 1] + values[idx]) / 2.0;
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
    // A constant feature ends up with zero cuts => a single bin, which
    // the split finder naturally ignores.
  }
}

std::span<const double> FeatureBinner::Boundaries(std::size_t feature) const {
  return boundaries_[feature];
}

int FeatureBinner::NumBins(std::size_t feature) const {
  return static_cast<int>(boundaries_[feature].size()) + 1;
}

std::uint8_t FeatureBinner::BinOf(std::size_t feature, double value) const {
  const std::vector<double>& cuts = boundaries_[feature];
  const auto it = std::lower_bound(cuts.begin(), cuts.end(), value);
  return static_cast<std::uint8_t>(it - cuts.begin());
}

double FeatureBinner::UpperEdge(std::size_t feature, int bin) const {
  const std::vector<double>& cuts = boundaries_[feature];
  SPE_CHECK_GE(bin, 0);
  if (static_cast<std::size_t>(bin) < cuts.size()) {
    return cuts[static_cast<std::size_t>(bin)];
  }
  return std::numeric_limits<double>::infinity();
}

BinnedMatrix FeatureBinner::Transform(const DatasetView& data) const {
  data.CheckAlive();
  SPE_CHECK(fitted());
  SPE_CHECK_EQ(data.num_features(), boundaries_.size());
  BinnedMatrix out;
  out.num_rows = data.num_rows();
  out.num_features = data.num_features();
  out.bins.resize(out.num_rows * out.num_features);
  for (std::size_t i = 0; i < out.num_rows; ++i) {
    for (std::size_t f = 0; f < out.num_features; ++f) {
      out.bins[i * out.num_features + f] = BinOf(f, data.At(i, f));
    }
  }
  return out;
}

}  // namespace gbdt
}  // namespace spe
