#ifndef SPE_CLASSIFIERS_GBDT_BINNING_H_
#define SPE_CLASSIFIERS_GBDT_BINNING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "spe/data/dataset.h"

namespace spe {
namespace gbdt {

/// Dense row-major matrix of per-feature bin indices; the working
/// representation for histogram-based tree learning (the LightGBM-style
/// trick the paper's GBDT baseline relies on for speed).
struct BinnedMatrix {
  std::size_t num_rows = 0;
  std::size_t num_features = 0;
  std::vector<std::uint8_t> bins;  // num_rows x num_features

  std::uint8_t At(std::size_t row, std::size_t feature) const {
    return bins[row * num_features + feature];
  }
};

/// Quantile feature binner: learns up to `max_bins` cut points per
/// feature from (a subsample of) the training distribution, then maps
/// raw values to bin indices. Split thresholds recorded by the tree
/// learner refer back to the cut values so fitted trees can score raw,
/// unbinned rows.
class FeatureBinner {
 public:
  /// Learns bin boundaries. max_bins must be in [2, 256].
  void Fit(const DatasetView& data, int max_bins = 64);

  /// The sorted cut points of `feature` (empty for a single-bin feature).
  std::span<const double> Boundaries(std::size_t feature) const;

  bool fitted() const { return !boundaries_.empty(); }
  std::size_t num_features() const { return boundaries_.size(); }

  /// Number of bins actually used by `feature` (<= max_bins; fewer when
  /// the feature has few distinct values).
  int NumBins(std::size_t feature) const;

  /// Bin index of a raw value: the count of boundaries strictly below it.
  std::uint8_t BinOf(std::size_t feature, double value) const;

  /// Upper raw-value edge of `bin` — rows with value <= edge fall in bins
  /// [0, bin]. Used to translate a bin split back to a raw threshold.
  double UpperEdge(std::size_t feature, int bin) const;

  BinnedMatrix Transform(const DatasetView& data) const;

 private:
  // boundaries_[f] is a sorted list of cut values; bin b holds values in
  // (boundaries[b-1], boundaries[b]]; the last bin is unbounded above.
  std::vector<std::vector<double>> boundaries_;
};

}  // namespace gbdt
}  // namespace spe

#endif  // SPE_CLASSIFIERS_GBDT_BINNING_H_
