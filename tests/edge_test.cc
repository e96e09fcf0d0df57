// Cross-module edge cases: boundary sizes, degenerate configurations and
// misuse handling that the per-module suites do not cover.
#include <gtest/gtest.h>

#include "apps/sort.h"
#include "apps/stencil.h"
#include "common/check.h"
#include "common/table.h"
#include "hls/dse.h"
#include "mpi/mpi.h"
#include "runtime/api.h"
#include "runtime/chain.h"
#include "unimem/pgas.h"

namespace ecoscale {
namespace {

// --- degenerate machine shapes ------------------------------------------------

TEST(Edge, SingleWorkerMachine) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 1;
  EcoRuntime rt(mc);
  auto kernel = rt.create_kernel(make_stencil5_kernel());
  auto buf = rt.create_buffer(kPageSize, Distribution::kBlock);
  (void)rt.enqueue(kernel, buf, 100);
  rt.finish();
  EXPECT_EQ(rt.stats().sw_tasks + rt.stats().hw_tasks, 1u);
}

TEST(Edge, SingleWorkerLazyNeverSpills) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 1;
  Machine machine(mc);
  Simulator sim;
  RuntimeConfig rc;
  rc.distribution = DistributionPolicy::kLazyLocal;
  rc.spill_depth = 1;
  RuntimeSystem runtime(machine, sim, rc);
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
  EXPECT_EQ(runtime.stats().forwarded_tasks, 0u);
}

TEST(Edge, OneRankMpiWorldCollectives) {
  MpiWorld world(1);
  const std::vector<SimTime> arrivals{microseconds(3)};
  EXPECT_GE(world.allreduce(64, arrivals).finish, microseconds(3));
  EXPECT_EQ(world.allreduce(64, arrivals).messages, 0u);
  EXPECT_EQ(world.alltoall(64, arrivals).messages, 0u);
}

// --- buffer and allocation boundaries -----------------------------------------

TEST(Edge, SubPageBuffer) {
  EcoRuntime rt(MachineConfig{});
  auto buf = rt.create_buffer(100, Distribution::kLocal, WorkerCoord{0, 0});
  std::vector<std::uint8_t> data(100, 7);
  rt.write_buffer(buf, 0, data);
  std::vector<std::uint8_t> out(100);
  rt.read_buffer(buf, 0, out);
  EXPECT_EQ(out, data);
  EXPECT_THROW(rt.read_buffer(buf, 1, out), CheckError);  // past end
}

TEST(Edge, ZeroSizeAllocRejected) {
  PgasSystem pgas(PgasConfig{});
  EXPECT_THROW(pgas.alloc(0, 0, 0), CheckError);
}

TEST(Edge, BufferExactlyOnePage) {
  EcoRuntime rt(MachineConfig{});
  auto buf = rt.create_buffer(kPageSize, Distribution::kCyclic);
  EXPECT_EQ(buf.layout().partitions().size(), 1u);
}

// --- chain edge cases ------------------------------------------------------------

TEST(Edge, ChainWithZeroItems) {
  Worker w({0, 0}, WorkerConfig{});
  const KernelIR kernels[] = {make_stencil5_kernel()};
  const std::vector<AcceleratorModule> stages{
      emit_variants(kernels[0], 1).front()};
  const auto r = run_chained(w, stages, kernels, 0, 0);
  EXPECT_TRUE(r.fits);
  EXPECT_EQ(r.dram_bytes, 0u);
}

TEST(Edge, EmptyChainRejected) {
  Worker w({0, 0}, WorkerConfig{});
  EXPECT_THROW(run_chained(w, {}, {}, 10, 0), CheckError);
}

// --- HLS boundaries ------------------------------------------------------------

TEST(Edge, DseLimitsOfOnePoint) {
  DseLimits limits;
  limits.max_unroll = 1;
  limits.max_partition = 1;
  limits.max_dram_ports = 1;
  limits.explore_no_pipeline = false;
  const auto points = enumerate_designs(make_spmv_kernel(), limits);
  EXPECT_EQ(points.size(), 1u);
  const auto front = pareto_front(points);
  EXPECT_EQ(front.size(), 1u);
}

TEST(Edge, EmitSingleVariantAlwaysFitsDefaultFabric) {
  for (const auto& k :
       {make_stencil5_kernel(), make_matmul_tile_kernel(),
        make_montecarlo_kernel(), make_cart_split_kernel(),
        make_sha_like_kernel(), make_spmv_kernel(), make_fft_kernel()}) {
    const auto variants = emit_variants(k, 1, DseLimits{}, HlsTechnology{}, 8);
    ASSERT_EQ(variants.size(), 1u);
    EXPECT_LE(variants[0].shape.slots(), 64u) << k.name;
  }
}

// --- stencil boundaries ---------------------------------------------------------

TEST(Edge, MinimumGridSolves) {
  apps::Grid2D g(3, 3, 0.0);
  g.at(1, 0) = 1.0;
  EXPECT_LT(apps::jacobi_solve(g, 1e-9, 1000), 1000u);
  EXPECT_NEAR(g.at(1, 1), 0.25, 1e-6);
}

TEST(Edge, HaloSingleTileIsZero) {
  EXPECT_EQ(apps::halo_bytes_per_sweep(128, 128, 1, 1), 0u);
}

// --- sort boundaries -------------------------------------------------------------

TEST(Edge, SortEmptyInput) {
  const std::vector<std::uint64_t> empty;
  const auto trace = apps::sample_sort(empty, 4);
  EXPECT_TRUE(trace.sorted.empty());
}

TEST(Edge, SortMoreRanksThanKeys) {
  const auto keys = apps::make_keys(3, 1);
  const auto trace = apps::sample_sort(keys, 8);
  EXPECT_EQ(trace.sorted.size(), 3u);
  EXPECT_TRUE(std::is_sorted(trace.sorted.begin(), trace.sorted.end()));
}

TEST(Edge, SortAllEqualKeys) {
  std::vector<std::uint64_t> keys(1000, 42);
  const auto trace = apps::sample_sort(keys, 4);
  EXPECT_EQ(trace.sorted, keys);
}

// --- reconfiguration boundaries ----------------------------------------------------

TEST(Edge, ModuleExactlyFabricSized) {
  ReconfigConfig cfg;
  cfg.fabric_width = 4;
  cfg.fabric_height = 4;
  ReconfigManager mgr("f", cfg);
  AcceleratorModule m;
  m.kernel = 1;
  m.shape = ModuleShape{4, 4};
  const auto r = mgr.ensure_loaded(m, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(mgr.floorplan().free_slots(), 0u);
}

TEST(Edge, WidthOneFabric) {
  ReconfigConfig cfg;
  cfg.fabric_width = 1;
  cfg.fabric_height = 8;
  ReconfigManager mgr("f", cfg);
  AcceleratorModule m;
  m.kernel = 1;
  m.shape = ModuleShape{1, 8};
  EXPECT_TRUE(mgr.ensure_loaded(m, 0).has_value());
}

// --- atomics as a lock (integration) ----------------------------------------------

TEST(Edge, SpinlockHandoffAcrossNodes) {
  PgasSystem pgas(PgasConfig{});
  const auto lock = pgas.alloc(0, 0, 64);
  // Worker (1,0) acquires, (0,1) spins, (1,0) releases, (0,1) acquires.
  const auto a = pgas.atomic_rmw({1, 0}, lock, AtomicOp::kCompareSwap, 1, 0,
                                 /*compare=*/0);
  ASSERT_TRUE(a.swapped);
  const auto spin = pgas.atomic_rmw({0, 1}, lock, AtomicOp::kCompareSwap, 1,
                                    a.finish, 0);
  EXPECT_FALSE(spin.swapped);
  const auto rel =
      pgas.atomic_rmw({1, 0}, lock, AtomicOp::kSwap, 0, spin.finish);
  EXPECT_EQ(rel.old_value, 1u);
  const auto b = pgas.atomic_rmw({0, 1}, lock, AtomicOp::kCompareSwap, 1,
                                 rel.finish, 0);
  EXPECT_TRUE(b.swapped);
}

// --- table formatting boundaries -----------------------------------------------------

TEST(Edge, FormatExtremes) {
  EXPECT_EQ(fmt_bytes(0), "0.00 B");
  EXPECT_EQ(fmt_time_ps(0), "0.00 ps");
  EXPECT_EQ(fmt_bytes(1024.0 * 1024 * 1024 * 1024 * 8), "8.00 TiB");
  EXPECT_EQ(fmt_time_ps(3.6e15), "3600.0 s");
}

}  // namespace
}  // namespace ecoscale
