#ifndef SPE_DATA_DATASET_H_
#define SPE_DATA_DATASET_H_

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "spe/common/check.h"
#include "spe/data/matrix.h"

namespace spe {

/// One feature column of a dataset: a contiguous slice over every row's
/// value plus the column's kind. This is the zero-copy currency of
/// per-feature passes (binner quantiles, scaler moments, split finding).
struct ColumnView {
  std::span<const double> values;
  FeatureKind kind = FeatureKind::kNumerical;
};

/// Binary-classification dataset: a column-major (SoA) feature matrix
/// plus 0/1 labels. Follows the paper's convention that the minority
/// class is the positive class (label 1) and the majority class is
/// negative (label 0).
///
/// The container is value-semantic, but since the columnar refactor the
/// *copying* interfaces (Subset, Append, whole-dataset copies) are the
/// slow path: algorithms that only need to select rows pass a
/// DatasetView (row-index indirection, zero bytes moved) instead. Every
/// copy that does happen is metered — see DataCopyStats in matrix.h.
///
/// Row-major access (the old Row()/MutableRow() spans) is gone by
/// design: a row is no longer contiguous. Callers that genuinely need a
/// dense row (single-row predict, serialization) gather one with
/// CopyRowTo into caller-owned scratch.
class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset with `num_features` columns, all numerical.
  explicit Dataset(std::size_t num_features) : m_(num_features) {}

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  std::size_t num_rows() const { return m_.num_rows(); }
  std::size_t num_features() const { return m_.num_features(); }
  bool empty() const { return m_.num_rows() == 0; }

  /// Feature value of row `row`, column `col`.
  double At(std::size_t row, std::size_t col) const { return m_.At(row, col); }
  void Set(std::size_t row, std::size_t col, double value) {
    m_.Set(row, col, value);
  }

  /// Zero-copy contiguous view over one feature column.
  ColumnView Column(std::size_t col) const {
    return {m_.Column(col), m_.feature_kind(col)};
  }

  /// Gathers the features of row `row` into `out` (scratch traffic;
  /// out.size() must equal num_features()).
  void CopyRowTo(std::size_t row, std::span<double> out) const {
    m_.CopyRowTo(row, out);
  }

  int Label(std::size_t row) const { return m_.Label(row); }
  void SetLabel(std::size_t row, int label) { m_.SetLabel(row, label); }
  const std::vector<int>& labels() const { return m_.labels(); }

  FeatureKind feature_kind(std::size_t col) const { return m_.feature_kind(col); }
  void set_feature_kind(std::size_t col, FeatureKind kind) {
    m_.set_feature_kind(col, kind);
  }
  /// True if any column is categorical; distance-based samplers use this
  /// to reject datasets they are not defined on.
  bool HasCategoricalFeatures() const;

  void Reserve(std::size_t rows) { m_.Reserve(rows); }

  /// Appends one example. `features.size()` must equal num_features(),
  /// and `label` must be 0 or 1. Invalidates outstanding views.
  void AddRow(std::span<const double> features, int label) {
    m_.AddRow(features, label);
  }

  /// Appends every row of `other`. The schema must match: same column
  /// count AND same per-column feature kinds — silently merging a
  /// categorical column into a numerical one corrupts downstream
  /// distance/binning logic, so a kind mismatch is a hard error.
  /// Invalidates outstanding views.
  void Append(const Dataset& other) { m_.Append(other.m_); }

  /// Drops every row past the first `rows` (no-op when rows >= num_rows).
  /// Capacity is kept, which is what makes a reusable subset buffer
  /// possible: ensemble trainers truncate back to a fixed prefix and
  /// re-append fresh picks instead of deep-copying the prefix each
  /// iteration. Invalidates outstanding views.
  void TruncateRows(std::size_t rows) { m_.TruncateRows(rows); }

  /// New dataset holding copies of rows at `indices`, in order
  /// (duplicates allowed, which is how bootstrap sampling is expressed).
  /// This materializes — prefer DatasetView(data, indices) when the
  /// consumer only reads.
  Dataset Subset(std::span<const std::size_t> indices) const;

  /// Indices of positive- (minority-) and negative- (majority-) class rows.
  std::vector<std::size_t> PositiveIndices() const;
  std::vector<std::size_t> NegativeIndices() const;

  std::size_t CountPositives() const;
  std::size_t CountNegatives() const { return num_rows() - CountPositives(); }

  /// |N| / |P| as defined in §II of the paper. Requires at least one
  /// positive example.
  double ImbalanceRatio() const;

  /// Human-readable one-line summary (rows, features, IR) for logging.
  std::string Summary() const;

  /// The underlying columnar storage (mmap adoption, fingerprinting).
  const DataMatrix& matrix() const { return m_; }
  DataMatrix& mutable_matrix() { return m_; }

 private:
  DataMatrix m_;
};

/// Non-owning read view over rows of a Dataset — the currency of
/// Subset/Split/bootstrap draws and of every Fit/PredictProba call.
/// Three modes:
///
///  - identity: the whole dataset, in storage order. Implicit from
///    `const Dataset&`, so existing `clf.Fit(data)` call sites compile
///    unchanged at zero cost.
///  - indexed: rows at caller-owned `indices`, in order, duplicates
///    allowed. This is what replaces Subset() copies in SPE, bagging,
///    cascades, splits and cross-validation.
///  - rows: an external dense row-major block (the serve batch path,
///    where requests land memcpy-straight in scoring layout). May be
///    unlabeled; Label() on an unlabeled view is a hard error.
///
/// Ownership rules (see DESIGN.md): a view owns nothing. The parent
/// Dataset and the index array must outlive it; structural mutation of
/// the parent (AddRow/Append/TruncateRows) invalidates the view, which
/// is caught — views snapshot the matrix version and CheckAlive()
/// fails loudly on mismatch. Debug/sanitizer builds check on every
/// access; release builds check at use-site entry points (Fit,
/// PredictProba, Materialize).
class DatasetView {
 public:
  DatasetView() = default;

  /// Identity view over all of `data` (intentionally implicit).
  DatasetView(const Dataset& data)  // NOLINT(google-explicit-constructor)
      : matrix_(&data.matrix()),
        num_rows_(data.num_rows()),
        version_(data.matrix().version()) {}

  /// Rows of `data` at `indices`, in order. `indices` is borrowed, not
  /// copied: the caller keeps it alive for the view's lifetime.
  DatasetView(const Dataset& data, std::span<const std::size_t> indices)
      : matrix_(&data.matrix()),
        indices_(indices),
        num_rows_(indices.size()),
        version_(data.matrix().version()) {}

  /// View over an external row-major block of `rows x num_features`
  /// doubles (stride = num_features). `labels` may be null (unlabeled
  /// scoring batch); `kinds` may be empty (all numerical).
  static DatasetView FromRows(const double* rows, std::size_t num_rows,
                              std::size_t num_features,
                              const int* labels = nullptr,
                              std::span<const FeatureKind> kinds = {});

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_features() const {
    return matrix_ != nullptr ? matrix_->num_features() : row_features_;
  }
  bool empty() const { return num_rows_ == 0; }

  double At(std::size_t row, std::size_t col) const {
#ifndef NDEBUG
    CheckAlive();
#endif
    if (rows_ != nullptr) return rows_[row * row_features_ + col];
    return matrix_->At(RowIndex(row), col);
  }

  int Label(std::size_t row) const {
#ifndef NDEBUG
    CheckAlive();
#endif
    if (rows_ != nullptr) {
      SPE_CHECK(row_labels_ != nullptr) << "Label() on an unlabeled row view";
      return row_labels_[row];
    }
    return matrix_->Label(RowIndex(row));
  }

  FeatureKind feature_kind(std::size_t col) const {
    if (matrix_ != nullptr) return matrix_->feature_kind(col);
    return row_kinds_.empty() ? FeatureKind::kNumerical : row_kinds_[col];
  }
  bool HasCategoricalFeatures() const;

  /// Gathers the features of row `row` into `out` (scratch traffic).
  void CopyRowTo(std::size_t row, std::span<double> out) const;

  std::size_t CountPositives() const;
  std::size_t CountNegatives() const { return num_rows_ - CountPositives(); }
  std::vector<std::size_t> PositiveIndices() const;
  std::vector<std::size_t> NegativeIndices() const;

  /// Labels of every view row, materialized in view order. For identity
  /// views prefer the parent's labels() (no copy).
  std::vector<int> LabelsVector() const;

  /// |N| / |P| over the viewed rows. Requires at least one positive.
  double ImbalanceRatio() const;

  /// Deep-copies the viewed rows into an owned Dataset (counted
  /// materialization) — the escape hatch for consumers that mutate.
  Dataset Materialize() const;

  /// True when the view is one dense row-major block (mode `rows`):
  /// Row-major consumers (the flat kernel's block feeders) read it
  /// in place instead of gathering.
  bool row_major() const { return rows_ != nullptr; }
  /// Base pointer of the row-major block; only valid when row_major().
  const double* rows_data() const { return rows_; }

  /// True when this is an identity view (all parent rows, storage order).
  bool identity() const { return matrix_ != nullptr && indices_.data() == nullptr; }
  /// The viewed parent matrix (null in rows mode).
  const DataMatrix* parent() const { return matrix_; }
  /// Parent-matrix row index of view row `row` (columnar modes only).
  std::size_t RowIndex(std::size_t row) const {
    return indices_.data() == nullptr ? row : indices_[row];
  }

  /// Indexed view over the same parent selecting parent-absolute row
  /// indices `abs` (borrowed — the caller keeps `abs` alive). Columnar
  /// modes only; callers compose view-relative picks through RowIndex
  /// first. This is how nested resamples (a bootstrap bag drawn from a
  /// fold view) stack without ever copying rows.
  DatasetView WithIndices(std::span<const std::size_t> abs) const;

  /// Fails loudly if the parent was structurally mutated after this view
  /// was taken. Call at entry of any pass over the view.
  void CheckAlive() const {
    if (matrix_ != nullptr) {
      SPE_CHECK(matrix_->version() == version_)
          << "stale DatasetView: parent Dataset was mutated "
             "(AddRow/Append/TruncateRows) after the view was taken";
    }
  }

 private:
  // Columnar modes: parent matrix (+ optional index indirection).
  const DataMatrix* matrix_ = nullptr;
  std::span<const std::size_t> indices_;
  // Rows mode: external dense row-major block.
  const double* rows_ = nullptr;
  const int* row_labels_ = nullptr;
  std::span<const FeatureKind> row_kinds_;
  std::size_t row_features_ = 0;

  std::size_t num_rows_ = 0;
  std::uint64_t version_ = 0;
};

/// Dense row-major scratch matrix: reusable staging for algorithms whose
/// inner loop genuinely wants contiguous rows (SGD epochs in LR/SVM/MLP,
/// distance kernels in k-NN). Reset() keeps capacity, so a reused
/// RowMatrix costs one allocation for the life of the consumer.
class RowMatrix {
 public:
  RowMatrix() = default;

  void Reset(std::size_t rows, std::size_t features);

  std::size_t num_rows() const { return rows_; }
  std::size_t num_features() const { return features_; }

  std::span<double> Row(std::size_t row) {
    return {x_.data() + row * features_, features_};
  }
  std::span<const double> Row(std::size_t row) const {
    return {x_.data() + row * features_, features_};
  }
  const double* data() const { return x_.data(); }
  double* data() { return x_.data(); }

  /// Gathers every row of `view` into this matrix (scratch traffic).
  void GatherFrom(const DatasetView& view);

 private:
  std::vector<double> x_;
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
};

/// Per-feature standardization (zero mean, unit variance) fitted on one
/// dataset and applied to others. Used by distance-based samplers and by
/// gradient-trained models (LR, SVM, MLP) whose optimization is scale
/// sensitive. Categorical columns are passed through untouched.
class FeatureScaler {
 public:
  /// Computes per-column mean and standard deviation from `data`.
  void Fit(const DatasetView& data);

  /// Returns a standardized owned copy (counted materialization). The
  /// scaler must be fitted first and the schema must match. Prefer
  /// TransformInPlace / TransformToRows on hot paths.
  Dataset Transform(const DatasetView& data) const;

  /// Standardizes `data`'s numerical columns in place — no copy. The
  /// schema must match the fitting dataset.
  void TransformInPlace(Dataset& data) const;

  /// Standardizes the viewed rows into row-major scratch `out`
  /// (scratch traffic, reusing `out`'s capacity). This is what keeps
  /// scale-sensitive fits (LR, SVM, MLP) from paying a full-dataset
  /// materialization per fit.
  void TransformToRows(const DatasetView& data, RowMatrix& out) const;

  /// Standardizes a single feature row into `out` (same length as the
  /// fitted schema). Categorical columns are copied through unchanged.
  void TransformRow(std::span<const double> in, std::span<double> out) const;

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& stds() const { return stds_; }

  /// Text serialization (used by the model persistence layer). Load
  /// throws MalformedPayload on bytes Save could not have written.
  void Save(std::ostream& os) const;
  static FeatureScaler Load(std::istream& is);

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
  std::vector<FeatureKind> kinds_;
};

}  // namespace spe

#endif  // SPE_DATA_DATASET_H_
