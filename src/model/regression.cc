#include "model/regression.h"

#include <array>
#include <cmath>

namespace ecoscale {

RidgeRegression::RidgeRegression(std::size_t dims, double lambda)
    : dims_(dims),
      lambda_(lambda),
      xtx_(dims * dims, 0.0),
      xty_(dims, 0.0),
      cached_beta_(dims, 0.0) {
  ECO_CHECK(dims >= 1);
  ECO_CHECK_MSG(dims <= kMaxDims, "ridge regression supports <= 16 features");
  ECO_CHECK(lambda > 0);
}

void RidgeRegression::observe(std::span<const double> features,
                              double target) {
  ECO_CHECK(features.size() == dims_);
  for (std::size_t i = 0; i < dims_; ++i) {
    for (std::size_t j = 0; j < dims_; ++j) {
      xtx_[i * dims_ + j] += features[i] * features[j];
    }
    xty_[i] += features[i] * target;
  }
  ++observations_;
  cache_valid_ = false;
}

bool RidgeRegression::solve() const {
  // Cholesky of A = XᵀX + λI into fixed scratch (no allocation).
  const std::size_t n = dims_;
  std::array<double, kMaxDims * kMaxDims> l{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = xtx_[i * n + j];
      if (i == j) sum += lambda_;
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (sum <= 0) return false;
        l[i * n + i] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  // Solve L z = Xᵀy, then Lᵀ beta = z.
  std::array<double, kMaxDims> z{};
  for (std::size_t i = 0; i < n; ++i) {
    double sum = xty_[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * n + k] * z[k];
    z[i] = sum / l[i * n + i];
  }
  std::vector<double>& beta = cached_beta_;
  for (std::size_t i = n; i-- > 0;) {
    double sum = z[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l[k * n + i] * beta[k];
    beta[i] = sum / l[i * n + i];
  }
  return true;
}

std::optional<double> RidgeRegression::predict(
    std::span<const double> features) const {
  ECO_CHECK(features.size() == dims_);
  if (observations_ < dims_) return std::nullopt;
  if (!cache_valid_) {
    if (!solve()) return std::nullopt;
    cache_valid_ = true;
  }
  double y = 0.0;
  for (std::size_t i = 0; i < dims_; ++i) y += cached_beta_[i] * features[i];
  return y;
}

std::vector<double> RidgeRegression::coefficients() const {
  if (observations_ < dims_) return {};
  if (!cache_valid_) {
    if (!solve()) return {};
    cache_valid_ = true;
  }
  return cached_beta_;
}

void FeatureScaler::observe(std::span<const double> x) {
  ECO_CHECK(x.size() == dims_);
  ++n_;
  for (std::size_t i = 0; i < dims_; ++i) {
    const double delta = x[i] - mean_[i];
    mean_[i] += delta / static_cast<double>(n_);
    m2_[i] += delta * (x[i] - mean_[i]);
  }
}

std::vector<double> FeatureScaler::transform(std::span<const double> x) const {
  ECO_CHECK(x.size() == dims_);
  std::vector<double> out(dims_);
  for (std::size_t i = 0; i < dims_; ++i) {
    const double var = n_ > 1 ? m2_[i] / static_cast<double>(n_ - 1) : 0.0;
    const double sd = var > 1e-12 ? std::sqrt(var) : 1.0;
    out[i] = (x[i] - mean_[i]) / sd;
  }
  return out;
}

}  // namespace ecoscale
