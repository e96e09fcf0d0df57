// Streaming principal-component analysis via Oja's rule — the "PCA
// technique" of the paper's model toolbox (§4.2). Used to decorrelate the
// task-feature stream (items, bytes and reuse are strongly collinear for
// streaming kernels) before regression.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace ecoscale {

class StreamingPca {
 public:
  StreamingPca(std::size_t dims, std::size_t components,
               double learning_rate = 0.05);

  std::size_t dims() const { return dims_; }
  std::size_t components() const { return components_.size(); }
  std::size_t observations() const { return n_; }

  /// Feed one (unscaled) sample; the estimator maintains a running mean
  /// and updates the component estimates on the centred sample.
  void observe(std::span<const double> x);

  /// Project a sample onto the current components (centred).
  std::vector<double> project(std::span<const double> x) const;

  /// Current estimate of component k (unit norm).
  std::span<const double> component(std::size_t k) const;

 private:
  void center(std::span<const double> x, std::vector<double>& out) const;

  std::size_t dims_;
  double lr_;
  std::size_t n_ = 0;
  std::vector<double> mean_;
  std::vector<std::vector<double>> components_;  // row-major unit vectors
};

}  // namespace ecoscale
