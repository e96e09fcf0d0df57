#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "model/predictor.h"
#include "model/regression.h"

namespace ecoscale {
namespace {

TEST(Ridge, RecoversLinearFunction) {
  RidgeRegression model(3, 1e-6);
  Rng rng(1);
  // y = 2 + 3a - 5b
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0, 10);
    const double b = rng.uniform(0, 10);
    model.observe(std::array{1.0, a, b}, 2.0 + 3.0 * a - 5.0 * b);
  }
  const auto coef = model.coefficients();
  ASSERT_EQ(coef.size(), 3u);
  EXPECT_NEAR(coef[0], 2.0, 0.01);
  EXPECT_NEAR(coef[1], 3.0, 0.01);
  EXPECT_NEAR(coef[2], -5.0, 0.01);
  const auto pred = model.predict(std::array{1.0, 4.0, 2.0});
  ASSERT_TRUE(pred.has_value());
  EXPECT_NEAR(*pred, 2.0 + 12.0 - 10.0, 0.05);
}

TEST(Ridge, NoPredictionUntilEnoughData) {
  RidgeRegression model(4);
  EXPECT_FALSE(model.predict(std::array{1.0, 2.0, 3.0, 4.0}).has_value());
  for (int i = 0; i < 3; ++i) {
    model.observe(std::array{1.0, double(i), double(i * i), 1.0}, double(i));
  }
  EXPECT_FALSE(model.predict(std::array{1.0, 2.0, 4.0, 1.0}).has_value());
  model.observe(std::array{1.0, 9.0, 81.0, 1.0}, 9.0);
  EXPECT_TRUE(model.predict(std::array{1.0, 2.0, 4.0, 1.0}).has_value());
}

TEST(Ridge, RobustToNoise) {
  RidgeRegression model(2, 1e-3);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0, 100);
    model.observe(std::array{1.0, x}, 10.0 + 0.5 * x + rng.normal(0, 2.0));
  }
  const auto coef = model.coefficients();
  EXPECT_NEAR(coef[1], 0.5, 0.02);
}

TEST(Ridge, PrequentialErrorShrinks) {
  // Prequential (test-then-train) error: predict each sample before
  // observing it, averaged over every observation so far.
  RidgeRegression model(2, 1e-6);
  Rng rng(3);
  double abs_err_sum = 0.0;
  auto step = [&] {
    const double x = rng.uniform(0, 10);
    const std::array<double, 2> f{1.0, x};
    if (auto p = model.predict(f)) abs_err_sum += std::abs(*p - 4.0 * x);
    model.observe(f, 4.0 * x);
    return abs_err_sum / static_cast<double>(model.observations());
  };
  double early = 0.0;
  for (int i = 0; i < 10; ++i) early = step();
  double late = early;
  for (int i = 0; i < 500; ++i) late = step();
  EXPECT_LE(late, early + 1e-9);
}

TEST(Ridge, RejectsMoreThanMaxDims) {
  EXPECT_NO_THROW(RidgeRegression{RidgeRegression::kMaxDims});
  EXPECT_THROW(RidgeRegression{RidgeRegression::kMaxDims + 1}, CheckError);
}

TEST(Scaler, StandardisesFeatures) {
  FeatureScaler scaler(2);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    scaler.observe(std::array{rng.normal(100.0, 10.0),
                              rng.normal(-5.0, 0.5)});
  }
  const auto z = scaler.transform(std::array{100.0, -5.0});
  EXPECT_NEAR(z[0], 0.0, 0.15);
  EXPECT_NEAR(z[1], 0.0, 0.15);
  const auto hi = scaler.transform(std::array{110.0, -4.5});
  EXPECT_NEAR(hi[0], 1.0, 0.15);
  EXPECT_NEAR(hi[1], 1.0, 0.15);
}

TEST(Predictor, StaticFallbackBeforeTraining) {
  CostPredictor pred;
  const auto k = make_montecarlo_kernel();
  TaskFeatures f;
  f.items = 1000;
  f.bytes = 16000;
  const auto p = pred.predict(k, DeviceClass::kCpu, f);
  EXPECT_FALSE(p.from_model);
  EXPECT_GT(p.time_ns, 0.0);
  EXPECT_GT(p.energy_pj, 0.0);
}

TEST(Predictor, LearnsFromObservations) {
  CostPredictor pred;
  const auto k = make_montecarlo_kernel();
  // Ground truth: time = 100 + 2*items ns.
  for (int i = 1; i <= 40; ++i) {
    HistoryRecord r;
    r.kernel = k.id;
    r.device = DeviceClass::kCpu;
    r.features.items = i * 100.0;
    r.features.bytes = i * 1600.0;
    r.time_ns = 100.0 + 2.0 * r.features.items;
    r.energy_pj = 50.0 * r.features.items;
    pred.observe(r);
  }
  TaskFeatures f;
  f.items = 2500.0;
  f.bytes = 40000.0;
  const auto p = pred.predict(k, DeviceClass::kCpu, f);
  EXPECT_TRUE(p.from_model);
  EXPECT_NEAR(p.time_ns, 100.0 + 5000.0, 150.0);
  EXPECT_NEAR(p.energy_pj, 125000.0, 3000.0);
  EXPECT_EQ(pred.observations(k.id, DeviceClass::kCpu), 40u);
  EXPECT_EQ(pred.observations(k.id, DeviceClass::kLocalFabric), 0u);
}

TEST(Predictor, DevicesModelledIndependently) {
  CostPredictor pred;
  const auto k = make_stencil5_kernel();
  for (int i = 1; i <= 30; ++i) {
    HistoryRecord cpu;
    cpu.kernel = k.id;
    cpu.device = DeviceClass::kCpu;
    cpu.features.items = i * 10.0;
    cpu.time_ns = 10.0 * cpu.features.items;
    pred.observe(cpu);
    HistoryRecord hw = cpu;
    hw.device = DeviceClass::kLocalFabric;
    hw.time_ns = 1.0 * hw.features.items + 5000.0;
    pred.observe(hw);
  }
  TaskFeatures f;
  f.items = 150.0;
  const auto pc = pred.predict(k, DeviceClass::kCpu, f);
  const auto ph = pred.predict(k, DeviceClass::kLocalFabric, f);
  EXPECT_GT(pc.time_ns, ph.time_ns * 0.2);
  EXPECT_NEAR(pc.time_ns, 1500.0, 100.0);
  EXPECT_NEAR(ph.time_ns, 5150.0, 300.0);
}

TEST(Predictor, PredictionsClampedNonNegative) {
  CostPredictor pred;
  const auto k = make_spmv_kernel();
  // Adversarial data that would extrapolate negative.
  for (int i = 1; i <= 20; ++i) {
    HistoryRecord r;
    r.kernel = k.id;
    r.device = DeviceClass::kCpu;
    r.features.items = i * 1.0;
    r.time_ns = 1000.0 - 40.0 * i;
    r.energy_pj = 1.0;
    pred.observe(r);
  }
  TaskFeatures f;
  f.items = 100.0;  // extrapolates to negative time
  const auto p = pred.predict(k, DeviceClass::kCpu, f);
  EXPECT_GE(p.time_ns, 0.0);
}

}  // namespace
}  // namespace ecoscale
