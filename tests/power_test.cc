#include <gtest/gtest.h>

#include "hls/dse.h"
#include "runtime/scheduler.h"
#include "unimem/pgas.h"
#include "worker/power.h"

namespace ecoscale {
namespace {

TEST(Power, RunAtScalesWithFrequency) {
  DvfsPoint slow{0.6, 30.0};
  DvfsPoint fast{1.2, 120.0};
  const auto a = run_at(1e6, slow, 0.0);
  const auto b = run_at(1e6, fast, 0.0);
  EXPECT_EQ(a.time, 2 * b.time);
  EXPECT_LT(a.energy, b.energy);  // dynamic-only: slow is cheaper
}

TEST(Power, StaticPowerChargesForDuration) {
  DvfsPoint p{1.0, 100.0};
  const auto no_static = run_at(1e6, p, 0.0);
  const auto with_static = run_at(1e6, p, 2.0);
  EXPECT_EQ(no_static.time, with_static.time);
  const double expected_static_pj = 2.0 * to_seconds(no_static.time) * 1e12;
  EXPECT_NEAR(with_static.energy - no_static.energy, expected_static_pj,
              expected_static_pj * 1e-9);
}

TEST(Power, DeadlineInfeasibleReturnsNull) {
  DvfsPoint p{0.5, 20.0};
  EXPECT_FALSE(
      energy_with_deadline(1e9, p, 0.5, 0.1, microseconds(1)).has_value());
}

TEST(Power, LadderIsMonotoneInFrequency) {
  const auto ladder = default_dvfs_ladder();
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].clock_ghz, ladder[i - 1].clock_ghz);
    EXPECT_GT(ladder[i].pj_per_cycle, ladder[i - 1].pj_per_cycle);
  }
}

TEST(Power, GatedIdleFavoursRacing) {
  // Near-zero idle power: finish fast, gate off.
  const auto best = best_dvfs_point(1e9, /*static=*/1.0, /*idle=*/0.01,
                                    milliseconds(2000));
  ASSERT_TRUE(best.has_value());
  EXPECT_GE(best->clock_ghz, 1.5);
}

TEST(Power, LeakyPlatformFavoursJustInTime) {
  // Idle power == static power: duration is paid regardless; minimise
  // dynamic by running as slowly as the deadline allows.
  const auto best = best_dvfs_point(1e9, /*static=*/1.5, /*idle=*/1.5,
                                    milliseconds(2000));
  ASSERT_TRUE(best.has_value());
  EXPECT_LE(best->clock_ghz, 0.8);
}

TEST(Power, ImpossibleDeadlineYieldsNoPoint) {
  EXPECT_FALSE(
      best_dvfs_point(1e12, 1.0, 0.1, microseconds(1)).has_value());
}

// --- progressive translation inside the PGAS ------------------------------------

TEST(ProgressivePgas, RemoteAccessPaysMoreTranslationLevels) {
  PgasConfig base;
  base.nodes = 2;
  base.workers_per_node = 2;
  // Exaggerate translation so its contribution is measurable.
  PgasConfig slow_translation = base;
  slow_translation.translation_latencies = {microseconds(1), microseconds(10),
                                            microseconds(100)};
  PgasSystem fast(base);
  PgasSystem slow(slow_translation);
  const auto fast_remote_addr = fast.alloc(1, 0, kPageSize);
  const auto slow_remote_addr = slow.alloc(1, 0, kPageSize);
  const auto fast_access = fast.load({0, 0}, fast_remote_addr, 8, 0);
  const auto slow_access = slow.load({0, 0}, slow_remote_addr, 8, 0);
  // The slow-translation system pays all three levels (~111 us more).
  EXPECT_GT(slow_access.finish, fast_access.finish + microseconds(100));
}

TEST(ProgressivePgas, LocalAccessOnlyPaysLevelZero) {
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  cfg.translation_latencies = {nanoseconds(1), microseconds(50),
                               microseconds(500)};
  PgasSystem pgas(cfg);
  const auto local = pgas.alloc(0, 0, kPageSize);
  const auto r = pgas.load({0, 0}, local, 8, 0);
  // Far below the level-1 latency: only the worker-local table was used.
  EXPECT_LT(r.finish, microseconds(50));
}

// --- daemon integrated into the runtime -------------------------------------------

TEST(RuntimeDaemon, EnabledRuntimePrefetches) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 2;
  mc.worker.fabric.fabric_width = 6;  // two 3-wide modules fit
  Machine machine(mc);
  Simulator sim;
  RuntimeConfig rc;
  rc.placement = PlacementPolicy::kAlwaysHardware;
  rc.enable_daemon = true;
  rc.daemon.period = microseconds(500);
  RuntimeSystem runtime(machine, sim, rc);
  const auto kernel = make_montecarlo_kernel();
  runtime.register_kernel(kernel, emit_variants(kernel, 1));
  ASSERT_NE(runtime.daemon(0), nullptr);
  for (TaskId i = 0; i < 20; ++i) {
    Task t;
    t.id = i;
    t.kernel = kernel.id;
    t.items = 50000;
    t.features.items = 50000;
    t.home = {0, 0};
    t.release = milliseconds(i);
    runtime.submit(t);
  }
  runtime.run();
  EXPECT_EQ(runtime.results().size(), 20u);
  // The daemon saw the calls and holds a positive score for the kernel.
  EXPECT_GT(runtime.daemon(0)->score(kernel.id), 0.0);
}

TEST(RuntimeFailures, AllTasksCompleteDespiteCrashes) {
  MachineConfig mc;
  mc.nodes = 2;
  mc.workers_per_node = 2;
  Machine machine(mc);
  Simulator sim;
  RuntimeConfig rc;
  rc.placement = PlacementPolicy::kAlwaysSoftware;
  rc.faults.enabled = true;
  rc.faults.worker_crash_per_second = 3000.0;  // scaled for ms-long runs
  rc.faults.repair_time = microseconds(500);
  RuntimeSystem runtime(machine, sim, rc);
  const auto kernel = make_cart_split_kernel();
  runtime.register_kernel(kernel, emit_variants(kernel, 1));
  constexpr int kTasks = 40;
  for (TaskId i = 0; i < kTasks; ++i) {
    Task t;
    t.id = i;
    t.kernel = kernel.id;
    t.items = 40000;
    t.features.items = 40000;
    t.home = {static_cast<NodeId>(i % 2), static_cast<WorkerId>(i % 2)};
    t.release = microseconds(10 * i);
    runtime.submit(t);
  }
  runtime.run();
  const auto s = runtime.stats();
  EXPECT_EQ(runtime.results().size(), static_cast<std::size_t>(kTasks));
  EXPECT_GT(s.worker_failures, 0u);
  EXPECT_EQ(s.worker_failures, s.reexecutions);
}

TEST(RuntimeFailures, ZeroRateMeansZeroFailures) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 2;
  Machine machine(mc);
  Simulator sim;
  RuntimeSystem runtime(machine, sim, RuntimeConfig{});
  const auto kernel = make_spmv_kernel();
  runtime.register_kernel(kernel, emit_variants(kernel, 1));
  for (TaskId i = 0; i < 10; ++i) {
    Task t;
    t.id = i;
    t.kernel = kernel.id;
    t.items = 10000;
    t.features.items = 10000;
    t.home = {0, 0};
    runtime.submit(t);
  }
  runtime.run();
  EXPECT_EQ(runtime.stats().worker_failures, 0u);
}

TEST(RuntimeDaemon, DisabledRuntimeHasNoDaemon) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 1;
  Machine machine(mc);
  Simulator sim;
  RuntimeSystem runtime(machine, sim, RuntimeConfig{});
  EXPECT_EQ(runtime.daemon(0), nullptr);
}

}  // namespace
}  // namespace ecoscale
