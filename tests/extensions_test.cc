// Tests for the extension substrates: PGAS atomics, PA regression,
// streaming PCA, pre-emptive hardware execution / accelerator migration,
// the reconfiguration daemon, and fabric configuration scrubbing.
#include <gtest/gtest.h>

#include <array>

#include "common/check.h"
#include "common/rng.h"
#include "hls/dse.h"
#include "model/pca.h"
#include "model/svr.h"
#include "runtime/daemon.h"
#include "runtime/resilience.h"
#include "unimem/pgas.h"
#include "worker/preemption.h"

namespace ecoscale {
namespace {

// --- PGAS atomics --------------------------------------------------------

PgasConfig small_pgas() {
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  return cfg;
}

TEST(Atomics, FetchAddAccumulates) {
  PgasSystem pgas(small_pgas());
  const auto counter = pgas.alloc(0, 0, 64);
  SimTime t = 0;
  for (int i = 1; i <= 5; ++i) {
    const auto r = pgas.atomic_rmw({0, 0}, counter, AtomicOp::kFetchAdd,
                                   static_cast<std::uint64_t>(i), t);
    t = r.finish;
  }
  const auto final = pgas.atomic_rmw({0, 0}, counter, AtomicOp::kFetchAdd,
                                     0, t);
  EXPECT_EQ(final.old_value, 15u);  // 1+2+3+4+5
}

TEST(Atomics, CompareSwapSemantics) {
  PgasSystem pgas(small_pgas());
  const auto lock = pgas.alloc(0, 0, 64);
  const auto acquire = pgas.atomic_rmw({0, 1}, lock, AtomicOp::kCompareSwap,
                                       /*operand=*/1, 0, /*compare=*/0);
  EXPECT_TRUE(acquire.swapped);
  EXPECT_EQ(acquire.old_value, 0u);
  const auto contend = pgas.atomic_rmw({1, 0}, lock, AtomicOp::kCompareSwap,
                                       2, acquire.finish, 0);
  EXPECT_FALSE(contend.swapped);
  EXPECT_EQ(contend.old_value, 1u);
}

TEST(Atomics, SwapAndOr) {
  PgasSystem pgas(small_pgas());
  const auto word = pgas.alloc(1, 0, 64);
  const auto s = pgas.atomic_rmw({1, 0}, word, AtomicOp::kSwap, 0xff, 0);
  EXPECT_EQ(s.old_value, 0u);
  const auto o =
      pgas.atomic_rmw({1, 0}, word, AtomicOp::kFetchOr, 0xf00, s.finish);
  EXPECT_EQ(o.old_value, 0xffu);
  const auto check =
      pgas.atomic_rmw({1, 0}, word, AtomicOp::kFetchAdd, 0, o.finish);
  EXPECT_EQ(check.old_value, 0xfffu);
}

TEST(Atomics, RemoteExecutesAtOwnerAndCostsMore) {
  PgasSystem pgas(small_pgas());
  const auto counter = pgas.alloc(0, 0, 64);
  const auto local =
      pgas.atomic_rmw({0, 0}, counter, AtomicOp::kFetchAdd, 1, 0);
  const auto remote =
      pgas.atomic_rmw({1, 0}, counter, AtomicOp::kFetchAdd, 1, 0);
  EXPECT_FALSE(local.remote);
  EXPECT_TRUE(remote.remote);
  EXPECT_GT(remote.finish - 0, local.finish - 0);
  EXPECT_GT(remote.energy, local.energy);
  // Both updates landed (executed at the owner, no lost updates).
  const auto check =
      pgas.atomic_rmw({0, 0}, counter, AtomicOp::kFetchAdd, 0,
                      std::max(local.finish, remote.finish));
  EXPECT_EQ(check.old_value, 2u);
}

TEST(Atomics, AlignmentEnforced) {
  PgasSystem pgas(small_pgas());
  const auto base = pgas.alloc(0, 0, 64);
  EXPECT_THROW(
      pgas.atomic_rmw({0, 0}, base + 4, AtomicOp::kFetchAdd, 1, 0),
      CheckError);
}

// --- PA regression ("SVM technique") ----------------------------------------

TEST(Svr, LearnsLinearFunction) {
  PassiveAggressiveRegressor model(3, /*epsilon=*/0.5, /*C=*/0.5);
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const double a = rng.uniform(0, 10);
    const double b = rng.uniform(0, 10);
    model.observe(std::array{1.0, a, b}, 2.0 + 3.0 * a - 1.0 * b);
  }
  const double pred = model.predict(std::array{1.0, 5.0, 2.0});
  EXPECT_NEAR(pred, 2.0 + 15.0 - 2.0, 1.0);
}

TEST(Svr, PassiveInsideTube) {
  PassiveAggressiveRegressor model(2, /*epsilon=*/10.0);
  model.observe(std::array{1.0, 1.0}, 5.0);  // |err|=5 < 10: no update
  EXPECT_DOUBLE_EQ(model.weights()[0], 0.0);
  EXPECT_DOUBLE_EQ(model.weights()[1], 0.0);
}

TEST(Svr, RobustToOutliersVsRidge) {
  // y = 2x with 2% wild outliers: PA's capped updates should track the
  // bulk relationship better than unregularised least squares would.
  PassiveAggressiveRegressor pa(2, 0.2, 0.05);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(0, 10);
    const double y = rng.chance(0.02) ? 1e4 : 2.0 * x;
    pa.observe(std::array{1.0, x}, y);
  }
  EXPECT_NEAR(pa.predict(std::array{1.0, 5.0}), 10.0, 2.5);
}

// --- streaming PCA ------------------------------------------------------------

TEST(Pca, FindsDominantDirection) {
  StreamingPca pca(3, 1);
  Rng rng(4);
  // Data varies along (1, 2, 0)/sqrt(5) with small isotropic noise.
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.normal(0, 10.0);
    pca.observe(std::array{t * 1.0 + rng.normal(0, 0.1),
                           t * 2.0 + rng.normal(0, 0.1),
                           rng.normal(0, 0.1)});
  }
  const auto c = pca.component(0);
  const double inv = std::sqrt(5.0);
  // Direction up to sign.
  const double dot = c[0] * (1.0 / inv) + c[1] * (2.0 / inv) + c[2] * 0.0;
  EXPECT_GT(std::abs(dot), 0.98);
}

TEST(Pca, ComponentsStayUnitNorm) {
  StreamingPca pca(4, 2);
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    pca.observe(std::array{rng.normal(), rng.normal(), rng.normal(),
                           rng.normal()});
  }
  for (std::size_t k = 0; k < 2; ++k) {
    double norm = 0.0;
    for (const double v : pca.component(k)) norm += v * v;
    EXPECT_NEAR(norm, 1.0, 1e-6);
  }
}

TEST(Pca, ProjectionCentersData) {
  StreamingPca pca(2, 1);
  Rng rng(8);
  for (int i = 0; i < 3000; ++i) {
    pca.observe(std::array{100.0 + rng.normal(0, 5.0), -50.0});
  }
  // The mean point projects to ~0.
  const auto z = pca.project(std::array{100.0, -50.0});
  EXPECT_NEAR(z[0], 0.0, 1.5);
}

TEST(Pca, ExplainedVarianceConcentrates) {
  StreamingPca pca(3, 2);
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const double t = rng.normal(0, 10.0);
    pca.observe(std::array{t, 0.5 * t + rng.normal(0, 0.2),
                           rng.normal(0, 0.2)});
  }
  const auto ratio = pca.explained_variance_ratio();
  EXPECT_GT(ratio[0], 0.8);  // first component dominates
}

// --- pre-emption and accelerator migration ---------------------------------------

WorkerConfig pre_cfg() {
  WorkerConfig cfg;
  cfg.fabric.fabric_width = 8;
  cfg.fabric.fabric_height = 8;
  return cfg;
}

TEST(Preemption, HighPriorityFinishesSoonerWithPreemption) {
  const auto low = emit_variants(make_sha_like_kernel(), 1).front();
  const auto high = emit_variants(make_montecarlo_kernel(), 1).front();
  Worker w1({0, 0}, pre_cfg());
  Worker w2({0, 1}, pre_cfg());
  const SimTime arrival = microseconds(400);
  const auto pre = run_preemptive(w1, low, 2'000'000, high, 10000, arrival);
  const auto fifo =
      run_to_completion(w2, low, 2'000'000, high, 10000, arrival);
  EXPECT_LT(pre.high_finish, fifo.high_finish);
  // The preempted low job pays for it.
  EXPECT_GT(pre.low_finish, fifo.low_finish);
  EXPECT_GT(pre.overhead_energy, 0.0);
}

TEST(Preemption, NoOverlapMeansNoPreemption) {
  const auto low = emit_variants(make_sha_like_kernel(), 1).front();
  const auto high = emit_variants(make_montecarlo_kernel(), 1).front();
  Worker w({0, 0}, pre_cfg());
  const auto pre = run_preemptive(w, low, 100, high, 100, milliseconds(500));
  EXPECT_DOUBLE_EQ(pre.overhead_energy, 0.0);
}

TEST(Preemption, CheckpointCostScalesWithContext) {
  Worker w({0, 0}, pre_cfg());
  const auto m = emit_variants(make_stencil5_kernel(), 1).front();
  ASSERT_TRUE(w.run_hardware(m, 100, 0).has_value());
  PreemptionConfig small;
  small.context_bytes = 4 * kKiB;
  PreemptionConfig big;
  big.context_bytes = 64 * kKiB;
  const auto a = checkpoint_accelerator(w.fabric(), m, 0, small);
  const auto b = checkpoint_accelerator(w.fabric(), m, 0, big);
  EXPECT_GT(b.done, a.done);
  EXPECT_GT(b.energy, a.energy);
}

TEST(Preemption, CheckpointRequiresLoadedModule) {
  Worker w({0, 0}, pre_cfg());
  const auto m = emit_variants(make_stencil5_kernel(), 1).front();
  EXPECT_THROW(checkpoint_accelerator(w.fabric(), m, 0), CheckError);
}

TEST(AcceleratorMigration, MovesWorkToDestination) {
  const auto m = emit_variants(make_montecarlo_kernel(), 1).front();
  Worker src({0, 0}, pre_cfg());
  Worker dst({0, 1}, pre_cfg());
  ASSERT_TRUE(src.run_hardware(m, 1000, 0).has_value());
  const auto out = migrate_accelerator(src, dst, m, 50000, microseconds(100));
  ASSERT_TRUE(out.ok);
  EXPECT_FALSE(src.fabric().is_loaded(m.kernel));
  EXPECT_TRUE(dst.fabric().is_loaded(m.kernel));
  EXPECT_GT(out.finish, out.resumed);
  EXPECT_GT(out.bytes_moved, 0u);
}

TEST(AcceleratorMigration, FailsIfNotLoaded) {
  const auto m = emit_variants(make_montecarlo_kernel(), 1).front();
  Worker src({0, 0}, pre_cfg());
  Worker dst({0, 1}, pre_cfg());
  EXPECT_FALSE(migrate_accelerator(src, dst, m, 100, 0).ok);
}

// --- reconfiguration daemon -------------------------------------------------------

TEST(Daemon, PrefetchesHotKernels) {
  ReconfigConfig fc;
  fc.fabric_width = 16;
  fc.fabric_height = 8;
  ReconfigManager fabric("f", fc);
  ReconfigDaemon daemon(fabric);
  const auto hot = emit_variants(make_montecarlo_kernel(), 1).front();
  const auto cold = emit_variants(make_stencil5_kernel(), 1).front();
  daemon.register_module(hot);
  daemon.register_module(cold);
  for (int i = 0; i < 10; ++i) daemon.record_call(hot.kernel);
  daemon.record_call(cold.kernel);
  const auto loaded = daemon.tick(0);
  EXPECT_GE(loaded, 1u);
  EXPECT_TRUE(daemon.is_resident(hot.kernel));
  EXPECT_GT(daemon.score(hot.kernel), daemon.score(cold.kernel));
}

TEST(Daemon, EvictsColdWhenHotterWaits) {
  ReconfigConfig fc;
  fc.fabric_width = 2;
  fc.fabric_height = 8;  // roughly one module at a time
  ReconfigManager fabric("f", fc);
  ReconfigDaemon daemon(fabric);
  auto a = emit_variants(make_montecarlo_kernel(), 1).front();
  auto b = emit_variants(make_sha_like_kernel(), 1).front();
  a.shape = ModuleShape{2, 8};
  b.shape = ModuleShape{2, 8};
  daemon.register_module(a);
  daemon.register_module(b);
  // Phase 1: a is hot.
  for (int i = 0; i < 10; ++i) daemon.record_call(a.kernel);
  daemon.tick(0);
  ASSERT_TRUE(daemon.is_resident(a.kernel));
  // Phase 2: a goes silent, b becomes hot; decay drives a's score down.
  SimTime t = milliseconds(1);
  for (int period = 0; period < 12; ++period) {
    for (int i = 0; i < 10; ++i) daemon.record_call(b.kernel);
    daemon.tick(t);
    t += milliseconds(1);
  }
  EXPECT_TRUE(daemon.is_resident(b.kernel));
  EXPECT_FALSE(daemon.is_resident(a.kernel));
  EXPECT_GE(daemon.evictions(), 1u);
}

TEST(Daemon, ScoresDecay) {
  ReconfigManager fabric("f", ReconfigConfig{});
  ReconfigDaemon daemon(fabric);
  const auto m = emit_variants(make_spmv_kernel(), 1).front();
  daemon.register_module(m);
  for (int i = 0; i < 10; ++i) daemon.record_call(m.kernel);
  daemon.tick(0);
  const double s0 = daemon.score(m.kernel);
  daemon.tick(1);
  daemon.tick(2);
  EXPECT_LT(daemon.score(m.kernel), s0);
}

// --- fabric scrubbing ----------------------------------------------------------------

TEST(Scrubbing, PeriodicBoundsCorruptionWindow) {
  const SimTime horizon = milliseconds(100);
  const auto none = scrubbing_policy(
      /*scrub_period=*/0, /*seu_per_second=*/200.0, 2000, horizon,
      microseconds(160), 42);
  const auto slow = scrubbing_policy(milliseconds(5), 200.0, 2000, horizon,
                                     microseconds(160), 42);
  const auto fast = scrubbing_policy(microseconds(500), 200.0, 2000,
                                     horizon, microseconds(160), 42);
  // Scrubbing strictly reduces silent corruption; faster scrubbing more so.
  EXPECT_LT(slow.corrupted_calls, none.corrupted_calls);
  EXPECT_LT(fast.corrupted_calls, slow.corrupted_calls);
  // Overhead is the price, growing with scrub frequency.
  EXPECT_GT(fast.overhead, slow.overhead);
  EXPECT_EQ(none.overhead, 0u);
}

TEST(Scrubbing, NoSeusNoCorruption) {
  const auto out = scrubbing_policy(0, 0.0, 100, milliseconds(10),
                                    microseconds(100), 1);
  EXPECT_EQ(out.corrupted_calls, 0u);
  EXPECT_DOUBLE_EQ(out.corrupted_fraction, 0.0);
}

}  // namespace
}  // namespace ecoscale
