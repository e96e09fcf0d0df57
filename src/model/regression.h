// Online ridge regression for the runtime's input-dependent models
// (paper §4.2: "an array of regression, SVM and PCA techniques …
// building on prior experience on models for predicting execution time and
// power").
//
// Implementation: accumulated normal equations (XᵀX, Xᵀy) with Tikhonov
// damping, solved by Cholesky when a prediction is requested. Dimensions
// are small (≤ kMaxDims features), so exact dense solves are cheap, run in
// fixed stack scratch, and the model can be updated after every task
// completion: observe() only accumulates, and the next predict() solves
// once.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"

namespace ecoscale {

class RidgeRegression {
 public:
  /// Largest feature count; solve() works in fixed scratch of this size.
  static constexpr std::size_t kMaxDims = 16;

  explicit RidgeRegression(std::size_t dims, double lambda = 1e-3);

  std::size_t dims() const { return dims_; }
  std::size_t observations() const { return observations_; }

  /// Accumulate one (features, target) pair. No solve: the cached
  /// coefficients are invalidated and rebuilt by the next predict().
  void observe(std::span<const double> features, double target);

  /// Predict the target; nullopt until at least `dims` observations exist
  /// (before that the normal equations are rank-deficient in practice).
  std::optional<double> predict(std::span<const double> features) const;

  /// Solved coefficients (empty until enough observations).
  std::vector<double> coefficients() const;


 private:
  /// Cholesky solve of (XᵀX + λI) beta = Xᵀy into cached_beta_; false if
  /// the system is not positive definite (cached_beta_ is then untouched).
  bool solve() const;

  std::size_t dims_;
  double lambda_;
  std::vector<double> xtx_;  // dims × dims, row-major
  std::vector<double> xty_;  // dims
  std::size_t observations_ = 0;
  mutable std::vector<double> cached_beta_;  // dims, sized once
  mutable bool cache_valid_ = false;
};

/// Feature standardiser: running mean/std per dimension, used to keep the
/// normal equations well-conditioned across wildly different scales
/// (items vs. bytes). This is the pragmatic stand-in for the paper's PCA
/// preprocessing step.
class FeatureScaler {
 public:
  explicit FeatureScaler(std::size_t dims)
      : dims_(dims), mean_(dims, 0.0), m2_(dims, 0.0) {}

  void observe(std::span<const double> x);
  std::vector<double> transform(std::span<const double> x) const;
  std::size_t count() const { return n_; }

 private:
  std::size_t dims_;
  std::size_t n_ = 0;
  std::vector<double> mean_;
  std::vector<double> m2_;
};

}  // namespace ecoscale
