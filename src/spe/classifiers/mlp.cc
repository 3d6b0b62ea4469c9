#include "spe/classifiers/mlp.h"

#include <cmath>
#include <numeric>

#include "spe/common/check.h"
#include "spe/common/math.h"
#include "spe/common/rng.h"

namespace spe {
namespace {

/// Adam state for one parameter vector.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;

  explicit AdamState(std::size_t size) : m(size, 0.0), v(size, 0.0) {}

  // One Adam update with bias correction; t is the global step (1-based).
  void Apply(std::vector<double>& params, const std::vector<double>& grad,
             double lr, std::size_t t) {
    constexpr double kBeta1 = 0.9;
    constexpr double kBeta2 = 0.999;
    constexpr double kEps = 1e-8;
    const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      params[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + kEps);
    }
  }
};

}  // namespace

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  SPE_CHECK_GT(config.hidden_units, 0u);
}

double Mlp::Forward(std::span<const double> scaled,
                    std::vector<double>& hidden) const {
  const std::size_t h = config_.hidden_units;
  hidden.resize(h);
  for (std::size_t u = 0; u < h; ++u) {
    const double* w = w1_.data() + u * input_dim_;
    double z = b1_[u];
    for (std::size_t j = 0; j < input_dim_; ++j) z += w[j] * scaled[j];
    hidden[u] = z > 0.0 ? z : 0.0;  // ReLU
  }
  double out = b2_;
  for (std::size_t u = 0; u < h; ++u) out += w2_[u] * hidden[u];
  return Sigmoid(out);
}

void Mlp::Fit(const DatasetView& train) {
  train.CheckAlive();
  SPE_CHECK_GT(train.num_rows(), 0u);
  scaler_.Fit(train);
  RowMatrix x;
  scaler_.TransformToRows(train, x);
  const std::size_t n = x.num_rows();
  input_dim_ = x.num_features();
  const std::size_t h = config_.hidden_units;

  Rng rng(config_.seed);
  // He initialization for the ReLU layer, Xavier-ish for the output.
  const double init1 = std::sqrt(2.0 / static_cast<double>(input_dim_));
  const double init2 = std::sqrt(1.0 / static_cast<double>(h));
  w1_.resize(h * input_dim_);
  for (double& w : w1_) w = rng.Gaussian(0.0, init1);
  b1_.assign(h, 0.0);
  w2_.resize(h);
  for (double& w : w2_) w = rng.Gaussian(0.0, init2);
  b2_ = 0.0;

  AdamState adam_w1(w1_.size());
  AdamState adam_b1(b1_.size());
  AdamState adam_w2(w2_.size());
  AdamState adam_b2(1);
  std::vector<double> b2_vec = {b2_};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> hidden;
  std::vector<double> grad_w1(w1_.size());
  std::vector<double> grad_b1(b1_.size());
  std::vector<double> grad_w2(w2_.size());
  std::vector<double> grad_b2(1);

  std::size_t step = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t stop = std::min(start + config_.batch_size, n);
      std::fill(grad_w1.begin(), grad_w1.end(), 0.0);
      std::fill(grad_b1.begin(), grad_b1.end(), 0.0);
      std::fill(grad_w2.begin(), grad_w2.end(), 0.0);
      grad_b2[0] = 0.0;

      for (std::size_t b = start; b < stop; ++b) {
        const std::size_t row = order[b];
        auto features = x.Row(row);
        const double p = Forward(features, hidden);
        // dL/dz_out for BCE + sigmoid is simply (p - y).
        const double delta_out = p - static_cast<double>(train.Label(row));
        grad_b2[0] += delta_out;
        for (std::size_t u = 0; u < h; ++u) {
          grad_w2[u] += delta_out * hidden[u];
          if (hidden[u] > 0.0) {  // ReLU gate
            const double delta_h = delta_out * w2_[u];
            grad_b1[u] += delta_h;
            double* gw = grad_w1.data() + u * input_dim_;
            for (std::size_t j = 0; j < input_dim_; ++j) {
              gw[j] += delta_h * features[j];
            }
          }
        }
      }

      const double inv = 1.0 / static_cast<double>(stop - start);
      for (std::size_t i = 0; i < grad_w1.size(); ++i) {
        grad_w1[i] = grad_w1[i] * inv + config_.l2 * w1_[i];
      }
      for (double& g : grad_b1) g *= inv;
      for (std::size_t i = 0; i < grad_w2.size(); ++i) {
        grad_w2[i] = grad_w2[i] * inv + config_.l2 * w2_[i];
      }
      grad_b2[0] *= inv;

      ++step;
      adam_w1.Apply(w1_, grad_w1, config_.learning_rate, step);
      adam_b1.Apply(b1_, grad_b1, config_.learning_rate, step);
      adam_w2.Apply(w2_, grad_w2, config_.learning_rate, step);
      b2_vec[0] = b2_;
      adam_b2.Apply(b2_vec, grad_b2, config_.learning_rate, step);
      b2_ = b2_vec[0];
    }
  }
}

double Mlp::PredictRow(std::span<const double> x) const {
  SPE_CHECK(!w1_.empty()) << "predict before fit";
  std::vector<double> scaled(x.size());
  scaler_.TransformRow(x, scaled);
  std::vector<double> hidden;
  return Forward(scaled, hidden);
}

std::unique_ptr<Classifier> Mlp::Clone() const {
  return std::make_unique<Mlp>(config_);
}

}  // namespace spe
