#include "spe/classifiers/logistic_regression.h"

#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>

#include "spe/common/check.h"
#include "spe/common/parse.h"
#include "spe/common/rng.h"

namespace spe {
namespace {

double Sigmoid(double z) {
  // Split by sign to avoid overflow in exp.
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

LogisticRegression::LogisticRegression(const LogisticRegressionConfig& config)
    : config_(config) {}

void LogisticRegression::Fit(const DatasetView& train) { FitWeighted(train, {}); }

void LogisticRegression::FitWeighted(const DatasetView& train,
                                     const std::vector<double>& weights) {
  train.CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  std::vector<double> sample_weight = weights;
  if (sample_weight.empty()) {
    sample_weight.assign(train.num_rows(), 1.0);
  } else {
    SPE_CHECK_EQ(sample_weight.size(), train.num_rows());
  }

  scaler_.Fit(train);
  // Standardize into row-major scratch: SGD reads contiguous rows, and
  // the fit no longer materializes a second full dataset.
  RowMatrix x;
  scaler_.TransformToRows(train, x);
  const std::size_t n = x.num_rows();
  const std::size_t d = x.num_features();
  w_.assign(d, 0.0);
  bias_ = 0.0;

  Rng rng(config_.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    // 1/sqrt decay keeps early epochs fast and late epochs stable.
    const double lr =
        config_.learning_rate / std::sqrt(1.0 + static_cast<double>(epoch));
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t stop = std::min(start + config_.batch_size, n);
      std::vector<double> grad(d, 0.0);
      double grad_bias = 0.0;
      double batch_weight = 0.0;
      for (std::size_t b = start; b < stop; ++b) {
        const std::size_t row = order[b];
        auto features = x.Row(row);
        double z = bias_;
        for (std::size_t j = 0; j < d; ++j) z += w_[j] * features[j];
        const double err =
            (Sigmoid(z) - static_cast<double>(train.Label(row))) *
            sample_weight[row];
        for (std::size_t j = 0; j < d; ++j) grad[j] += err * features[j];
        grad_bias += err;
        batch_weight += sample_weight[row];
      }
      if (batch_weight <= 0.0) continue;
      const double inv = 1.0 / batch_weight;
      for (std::size_t j = 0; j < d; ++j) {
        w_[j] -= lr * (grad[j] * inv + config_.l2 * w_[j]);
      }
      bias_ -= lr * grad_bias * inv;
    }
  }
}

double LogisticRegression::PredictRow(std::span<const double> x) const {
  SPE_CHECK_EQ(x.size(), w_.size());
  std::vector<double> scaled(x.size());
  scaler_.TransformRow(x, scaled);
  double z = bias_;
  for (std::size_t j = 0; j < w_.size(); ++j) z += w_[j] * scaled[j];
  return Sigmoid(z);
}

std::unique_ptr<Classifier> LogisticRegression::Clone() const {
  return std::make_unique<LogisticRegression>(config_);
}

void LogisticRegression::SaveModel(std::ostream& os) const {
  SPE_CHECK(!w_.empty()) << "cannot save an unfitted model";
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "dim " << w_.size() << "\n";
  for (double w : w_) os << w << " ";
  os << "\n" << "bias " << bias_ << "\n";
  scaler_.Save(os);
}

LogisticRegression LogisticRegression::LoadModel(std::istream& is,
                                                 std::size_t num_features) {
  std::string keyword;
  std::size_t dim = 0;
  is >> keyword >> dim;
  // PredictRow requires rows exactly `dim` wide, weights and scaler alike.
  PayloadCheck(is.good() && keyword == "dim" && dim > 0 &&
                   dim <= BytesLeft(is) / 2 &&
                   (num_features == kAnyWidth || dim == num_features),
               "malformed LR model");
  LogisticRegression model;
  model.w_.resize(dim);
  for (double& w : model.w_) is >> w;
  is >> keyword >> model.bias_;
  PayloadCheck(is.good() && keyword == "bias", "malformed LR model");
  model.scaler_ = FeatureScaler::Load(is);
  PayloadCheck(model.scaler_.means().size() == dim, "malformed LR model");
  return model;
}

}  // namespace spe
