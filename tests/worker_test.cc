#include <gtest/gtest.h>

#include "hls/dse.h"
#include "worker/cpu.h"
#include "worker/virtualization.h"
#include "worker/worker.h"

namespace ecoscale {
namespace {

TEST(Cpu, ExecutionTimeMatchesClock) {
  CpuConfig cfg;
  cfg.cores = 1;
  cfg.clock_ghz = 1.0;  // 1 cycle = 1 ns
  CpuCluster cpu("c", cfg);
  const auto e = cpu.execute(0, 1000.0, 1);
  EXPECT_EQ(e.finish - e.start, nanoseconds(1000));
  EXPECT_DOUBLE_EQ(e.energy, cfg.pj_per_cycle * 1000.0);
}

TEST(Cpu, EarliestFreeIsTheIdlestCore) {
  CpuConfig cfg;
  cfg.cores = 3;
  cfg.clock_ghz = 2.0;  // 2 cycles per ns
  CpuCluster cpu("c", cfg);
  EXPECT_EQ(cpu.core_count(), 3u);
  EXPECT_EQ(cpu.cycles_to_time(2000.0), nanoseconds(1000));
  EXPECT_EQ(cpu.earliest_free(), 0u);
  cpu.execute(0, 2000.0);
  cpu.execute(0, 4000.0);
  EXPECT_EQ(cpu.earliest_free(), 0u);  // one core still idle
  cpu.execute(0, 6000.0);
  EXPECT_EQ(cpu.earliest_free(), nanoseconds(1000));
}

TEST(Cpu, PicksEarliestFreeCore) {
  CpuConfig cfg;
  cfg.cores = 2;
  CpuCluster cpu("c", cfg);
  const auto a = cpu.execute(0, 10000.0, 1);
  const auto b = cpu.execute(0, 10000.0, 2);
  EXPECT_NE(a.core, b.core);
  EXPECT_EQ(a.start, b.start);  // parallel on separate cores
  const auto c = cpu.execute(0, 100.0, 3);
  EXPECT_GT(c.start, 0u);  // both cores busy, queues behind one
}

TEST(Cpu, ContextSwitchChargedOnTaskChange) {
  CpuConfig cfg;
  cfg.cores = 1;
  cfg.clock_ghz = 1.0;
  CpuCluster cpu("c", cfg);
  const auto a = cpu.execute(0, 100.0, 7);
  const auto b = cpu.execute(a.finish, 100.0, 7);  // same task: no switch
  EXPECT_EQ(b.finish - b.start, nanoseconds(100));
  const auto c = cpu.execute(b.finish, 100.0, 8);  // new task: switch
  EXPECT_EQ(c.finish - c.start, nanoseconds(100) + cfg.context_switch);
  EXPECT_EQ(cpu.context_switches(), 1u);
}

TEST(Cpu, BusyTimeAccumulates) {
  CpuCluster cpu("c");
  (void)cpu.execute(0, 1200.0, 1);
  EXPECT_GT(cpu.busy_time(), 0u);
  EXPECT_GT(cpu.energy().total(), 0.0);
}

AcceleratorModule pipe_module() {
  AcceleratorModule m;
  m.name = "pipe";
  m.kernel = 9;
  m.shape = ModuleShape{2, 2};
  m.pipeline_depth = 20;
  m.initiation_interval = 1;
  m.clock_ghz = 0.25;
  m.pj_per_item = 10.0;
  return m;
}

TEST(Virtualization, PipelinedOverlapsCallers) {
  const auto m = pipe_module();
  VirtualizationBlock ex("ex", m, SharingMode::kExclusive);
  VirtualizationBlock pl("pl", m, SharingMode::kPipelined);
  // Two concurrent callers, 1000 items each.
  const auto e1 = ex.call(0, 1000, 0);
  const auto e2 = ex.call(1, 1000, 0);
  const auto p1 = pl.call(0, 1000, 0);
  const auto p2 = pl.call(1, 1000, 0);
  // Exclusive: second caller waits for the whole first call.
  EXPECT_GE(e2.start, e1.finish - m.pipeline_depth * m.cycle_time());
  // Pipelined: second caller's items issue right behind the first's.
  EXPECT_LT(p2.finish, e2.finish);
  // Single-caller latency is identical in both modes (same pipeline).
  EXPECT_NEAR(static_cast<double>(p1.finish),
              static_cast<double>(e1.finish),
              static_cast<double>(m.pipeline_depth * m.cycle_time()));
}

TEST(Virtualization, EnergyPerItemIndependentOfMode) {
  const auto m = pipe_module();
  VirtualizationBlock ex("ex", m, SharingMode::kExclusive);
  VirtualizationBlock pl("pl", m, SharingMode::kPipelined);
  EXPECT_DOUBLE_EQ(ex.call(0, 100, 0).energy, pl.call(0, 100, 0).energy);
}

TEST(Virtualization, CountsCallsAndItems) {
  VirtualizationBlock vb("v", pipe_module(), SharingMode::kPipelined);
  (void)vb.call(0, 10, 0);
  (void)vb.call(1, 20, 0);
  EXPECT_EQ(vb.calls(), 2u);
  EXPECT_EQ(vb.items(), 30u);
}

WorkerConfig small_worker() {
  WorkerConfig cfg;
  cfg.fabric.fabric_width = 8;
  cfg.fabric.fabric_height = 8;
  return cfg;
}

TEST(Worker, SoftwarePath) {
  Worker w({0, 0}, small_worker());
  const auto k = make_montecarlo_kernel();
  const auto r = w.run_software(k, 1000, 0, 1);
  EXPECT_FALSE(r.hardware);
  EXPECT_GT(r.finish, r.start);
  EXPECT_GT(r.energy, 0.0);
}

TEST(Worker, HardwarePathLoadsThenReuses) {
  Worker w({0, 0}, small_worker());
  const auto variants = emit_variants(make_montecarlo_kernel(), 1);
  ASSERT_FALSE(variants.empty());
  const auto first = w.run_hardware(variants[0], 1000, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->hardware);
  EXPECT_TRUE(first->reconfigured);
  const auto second = w.run_hardware(variants[0], 1000, first->finish);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->reconfigured);
  EXPECT_LT(second->finish - second->start, first->finish - first->start);
}

TEST(Worker, HardwareBeatsSoftwareOnLargeComputeHeavyKernels) {
  Worker w({0, 0}, small_worker());
  const auto k = make_montecarlo_kernel();  // 90 CPU cycles/item
  const auto variants = emit_variants(k, 1);
  const auto sw = w.run_software(k, 200000, 0, 1);
  const auto hw = w.run_hardware(variants[0], 200000, 0);
  ASSERT_TRUE(hw.has_value());
  EXPECT_LT(hw->finish - hw->start, sw.finish - sw.start);
  EXPECT_LT(hw->energy, sw.energy);
}

TEST(Worker, SoftwareBeatsHardwareOnTinyCalls) {
  Worker w({0, 0}, small_worker());
  const auto k = make_montecarlo_kernel();
  const auto variants = emit_variants(k, 1);
  const auto sw = w.run_software(k, 10, 0, 1);
  const auto hw = w.run_hardware(variants[0], 10, 0);  // pays config
  ASSERT_TRUE(hw.has_value());
  EXPECT_LT(sw.finish, hw->finish);
}

TEST(Worker, OversizedModuleRejected) {
  auto cfg = small_worker();
  cfg.fabric.fabric_width = 1;
  cfg.fabric.fabric_height = 1;
  Worker w({0, 0}, cfg);
  auto m = pipe_module();
  m.shape = ModuleShape{4, 4};
  EXPECT_FALSE(w.run_hardware(m, 100, 0).has_value());
}

TEST(Worker, FindBlockAfterHardwareRun) {
  Worker w({0, 0}, small_worker());
  const auto variants = emit_variants(make_stencil5_kernel(), 1);
  EXPECT_EQ(w.find_block(variants[0].kernel), nullptr);
  ASSERT_TRUE(w.run_hardware(variants[0], 100, 0).has_value());
  EXPECT_NE(w.find_block(variants[0].kernel), nullptr);
}

}  // namespace
}  // namespace ecoscale
