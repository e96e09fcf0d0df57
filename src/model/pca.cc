#include "model/pca.h"

#include <algorithm>

namespace ecoscale {

StreamingPca::StreamingPca(std::size_t dims, std::size_t components,
                           double learning_rate)
    : dims_(dims), lr_(learning_rate), mean_(dims, 0.0) {
  ECO_CHECK(dims >= 1);
  ECO_CHECK(components >= 1 && components <= dims);
  ECO_CHECK(learning_rate > 0 && learning_rate < 1);
  components_.resize(components);
  // Deterministic orthogonal-ish initialisation: axis-aligned unit vectors.
  for (std::size_t k = 0; k < components; ++k) {
    components_[k].assign(dims, 0.0);
    components_[k][k % dims] = 1.0;
  }
}

void StreamingPca::center(std::span<const double> x,
                          std::vector<double>& out) const {
  out.resize(dims_);
  for (std::size_t i = 0; i < dims_; ++i) out[i] = x[i] - mean_[i];
}

void StreamingPca::observe(std::span<const double> x) {
  ECO_CHECK(x.size() == dims_);
  ++n_;
  // Running mean.
  for (std::size_t i = 0; i < dims_; ++i) {
    mean_[i] += (x[i] - mean_[i]) / static_cast<double>(n_);
  }
  if (n_ < 2) return;
  std::vector<double> centered;
  center(x, centered);
  // Oja updates with Gram-Schmidt deflation between components.
  std::vector<double> residual = centered;
  const double lr = lr_ / (1.0 + 0.01 * static_cast<double>(n_));
  for (std::size_t k = 0; k < components_.size(); ++k) {
    auto& w = components_[k];
    double y = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) y += w[i] * residual[i];
    for (std::size_t i = 0; i < dims_; ++i) {
      w[i] += lr * y * (residual[i] - y * w[i]);
    }
    // Renormalise.
    double norm = 0.0;
    for (const double v : w) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (auto& v : w) v /= norm;
    }
    // Deflate the residual for the next component.
    double proj = 0.0;
    for (std::size_t i = 0; i < dims_; ++i) proj += w[i] * residual[i];
    for (std::size_t i = 0; i < dims_; ++i) residual[i] -= proj * w[i];
  }
}

std::vector<double> StreamingPca::project(std::span<const double> x) const {
  ECO_CHECK(x.size() == dims_);
  std::vector<double> centered;
  center(x, centered);
  std::vector<double> out(components_.size(), 0.0);
  for (std::size_t k = 0; k < components_.size(); ++k) {
    for (std::size_t i = 0; i < dims_; ++i) {
      out[k] += components_[k][i] * centered[i];
    }
  }
  return out;
}

std::span<const double> StreamingPca::component(std::size_t k) const {
  ECO_CHECK(k < components_.size());
  return components_[k];
}

}  // namespace ecoscale
