#include "spe/classifiers/linear_svm.h"

#include <algorithm>
#include <numeric>

#include "spe/common/check.h"
#include "spe/common/math.h"
#include "spe/common/rng.h"

namespace spe {

LinearSvm::LinearSvm(const SvmConfig& config) : config_(config) {
  SPE_CHECK_GT(config.c, 0.0);
}

void LinearSvm::Fit(const DatasetView& train) { FitWeighted(train, {}); }

std::vector<double> LinearSvm::MapRow(std::span<const double> x) const {
  std::vector<double> scaled(x.size());
  scaler_.TransformRow(x, scaled);
  if (config_.kernel == SvmConfig::Kernel::kRbfApprox) {
    return rff_.TransformRow(scaled);
  }
  return scaled;
}

void LinearSvm::FitWeighted(const DatasetView& train,
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
  // Standardize (and optionally Fourier-map) into row-major scratch;
  // the fit no longer materializes intermediate datasets.
  RowMatrix x;
  scaler_.TransformToRows(train, x);
  if (config_.kernel == SvmConfig::Kernel::kRbfApprox) {
    rff_.Init(train.num_features(), config_.rff_dim, config_.gamma,
              config_.seed + 0x9e3779b9ULL);
    RowMatrix mapped;
    rff_.TransformToRows(x, mapped);
    x = std::move(mapped);
  }

  const std::size_t n = x.num_rows();
  const std::size_t d = x.num_features();
  w_.assign(d, 0.0);
  bias_ = 0.0;

  // Pegasos: lambda = 1 / (C * n); learning rate 1 / (lambda * t).
  const double lambda = 1.0 / (config_.c * static_cast<double>(n));
  Rng rng(config_.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (std::size_t row : order) {
      ++t;
      const double lr = 1.0 / (lambda * static_cast<double>(t));
      auto features = x.Row(row);
      const double y = train.Label(row) == 1 ? 1.0 : -1.0;
      double margin = bias_;
      for (std::size_t j = 0; j < d; ++j) margin += w_[j] * features[j];

      // Regularization shrink applies every step; the hinge term only
      // when the example is inside the margin.
      const double shrink = 1.0 - lr * lambda;
      for (std::size_t j = 0; j < d; ++j) w_[j] *= shrink;
      if (y * margin < 1.0) {
        const double step = lr * y * sample_weight[row];
        for (std::size_t j = 0; j < d; ++j) w_[j] += step * features[j];
        bias_ += step;
      }
    }
  }

  // Platt scaling: logistic fit of labels on margins (gradient descent on
  // the two scalars; a handful of passes converges at these scales).
  std::vector<double> margins(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto features = x.Row(i);
    double m = bias_;
    for (std::size_t j = 0; j < d; ++j) m += w_[j] * features[j];
    margins[i] = m;
  }
  platt_a_ = 1.0;
  platt_b_ = 0.0;
  const double total_weight =
      std::accumulate(sample_weight.begin(), sample_weight.end(), 0.0);
  for (int iter = 0; iter < 200; ++iter) {
    double grad_a = 0.0;
    double grad_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(platt_a_ * margins[i] + platt_b_);
      const double err =
          (p - static_cast<double>(train.Label(i))) * sample_weight[i];
      grad_a += err * margins[i];
      grad_b += err;
    }
    platt_a_ -= 0.5 * grad_a / total_weight;
    platt_b_ -= 0.5 * grad_b / total_weight;
  }
}

double LinearSvm::Margin(std::span<const double> x) const {
  SPE_CHECK(!w_.empty()) << "predict before fit";
  const std::vector<double> mapped = MapRow(x);
  double m = bias_;
  for (std::size_t j = 0; j < w_.size(); ++j) m += w_[j] * mapped[j];
  return m;
}

double LinearSvm::PredictRow(std::span<const double> x) const {
  return Sigmoid(platt_a_ * Margin(x) + platt_b_);
}

std::unique_ptr<Classifier> LinearSvm::Clone() const {
  return std::make_unique<LinearSvm>(config_);
}

}  // namespace spe
