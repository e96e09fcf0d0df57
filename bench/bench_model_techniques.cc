// EXP-C8b-models — the model-building toolbox (paper §4.2: "We intend to
// use an array of regression, SVM and PCA techniques for this purpose").
//
// Compares ridge regression, passive-aggressive (SVM-family) regression,
// and PCA-preprocessed ridge on the task the runtime actually faces:
// predicting execution time from task features, online, with occasional
// outliers (cold caches, reconfiguration stalls). All models work in log
// space — task costs span four orders of magnitude, and a multiplicative
// error model is what makes MAPE the natural metric.
#include <array>
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "model/pca.h"
#include "model/regression.h"
#include "model/svr.h"

namespace ecoscale {
namespace {

/// Ground-truth cost: time = 50 + 0.004*items + 0.0006*bytes with
/// multiplicative noise; features are log-scaled task properties (the
/// collinear pair log-items / log-bytes plus access-pattern terms).
struct Sample {
  std::array<double, 5> x;
  double y;      // natural units (ns)
  double log_y;  // training target
};

Sample draw(Rng& rng, double outlier_rate) {
  Sample s;
  const double items = std::pow(10.0, rng.uniform(2.0, 6.0));
  const double bytes = 16.0 * items * rng.uniform(0.9, 1.1);
  const double reuse = rng.uniform(0.5, 2.0);
  const double branchiness = rng.uniform(0.0, 0.2);
  s.x = {1.0, std::log10(items), std::log10(bytes), reuse, branchiness};
  // Power-law cost (log-linear ground truth): per-item cost shrinks
  // slightly with batch size, grows with per-item bytes and branchiness.
  double y = 2.5 * std::pow(items, 0.95) *
             std::pow(bytes / items, 0.4) * (1.0 + 2.0 * branchiness) *
             std::exp(rng.normal(0.0, 0.08));
  if (rng.chance(outlier_rate)) y *= rng.uniform(5.0, 20.0);
  s.y = y;
  s.log_y = std::log(y);
  return s;
}

template <typename Train, typename Predict>
double evaluate_mape(double outlier_rate, Train train, Predict predict_log) {
  Rng rng(2024);
  for (int i = 0; i < 3000; ++i) {
    const auto s = draw(rng, outlier_rate);
    train(s.x, s.log_y);
  }
  double mape = 0.0;
  int count = 0;
  for (int i = 0; i < 500; ++i) {
    const auto s = draw(rng, 0.0);  // clean holdout
    const double p = std::exp(predict_log(s.x));
    mape += std::abs(p - s.y) / s.y;
    ++count;
  }
  return mape / count;
}

}  // namespace
}  // namespace ecoscale

int main() {
  using namespace ecoscale;
  bench::print_header("EXP-C8b-models",
                      "regression / SVM / PCA techniques for cost "
                      "prediction (claim C8, §4.2)");

  Table t({"outlier rate", "ridge MAPE", "PA (SVM) MAPE",
           "PCA(3)+ridge MAPE"});
  for (const double outliers : {0.0, 0.02, 0.10}) {
    RidgeRegression ridge(5, 1e-3);
    const double ridge_mape = evaluate_mape(
        outliers,
        [&](const auto& x, double y) { ridge.observe(x, y); },
        [&](const auto& x) { return ridge.predict(x).value_or(0.0); });

    // PA's epsilon-insensitive loss with capped updates: an outlier can
    // move each weight by at most C, so a x20 cost spike nudges rather
    // than wrecks the model.
    PassiveAggressiveRegressor pa(5, /*epsilon=*/0.05, /*C=*/0.02);
    const double pa_mape = evaluate_mape(
        outliers,
        [&](const auto& x, double y) { pa.observe(x, y); },
        [&](const auto& x) { return pa.predict(x); });

    FeatureScaler pca_scaler(5);
    StreamingPca pca(5, 3, /*learning_rate=*/0.01);
    RidgeRegression pca_ridge(4, 1e-3);  // bias + 3 components
    int burn_in = 0;
    const double pca_mape = evaluate_mape(
        outliers,
        [&](const auto& x, double y) {
          pca_scaler.observe(x);
          const auto xs = pca_scaler.transform(x);
          pca.observe(xs);
          if (++burn_in < 300) return;  // let components settle
          const auto z = pca.project(xs);
          pca_ridge.observe(std::array{1.0, z[0], z[1], z[2]}, y);
        },
        [&](const auto& x) {
          const auto z = pca.project(pca_scaler.transform(x));
          return pca_ridge.predict(std::array{1.0, z[0], z[1], z[2]})
              .value_or(0.0);
        });

    t.add_row({fmt_pct(outliers), fmt_pct(ridge_mape), fmt_pct(pa_mape),
               fmt_pct(pca_mape)});
  }
  bench::print_table(
      t,
      "Online training on 3000 task-cost samples (log-space models),\n"
      "evaluated on a clean holdout. Least squares is sharpest on clean\n"
      "data but absorbs outliers into its normal equations forever; the\n"
      "capped-update PA learner degrades gracefully; PCA collapses the\n"
      "collinear features at a small fidelity cost — the reason §4.2\n"
      "keeps an array of techniques:");
  return 0;
}
