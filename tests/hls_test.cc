#include <gtest/gtest.h>

#include "hls/dse.h"
#include "hls/estimate.h"
#include "hls/ir.h"

namespace ecoscale {
namespace {

TEST(KernelIR, FactoriesHaveDistinctIds) {
  const KernelIR kernels[] = {
      make_stencil5_kernel(),  make_matmul_tile_kernel(),
      make_montecarlo_kernel(), make_cart_split_kernel(),
      make_sha_like_kernel(),   make_spmv_kernel()};
  for (std::size_t i = 0; i < std::size(kernels); ++i) {
    for (std::size_t j = i + 1; j < std::size(kernels); ++j) {
      EXPECT_NE(kernels[i].id, kernels[j].id);
    }
    EXPECT_GT(kernels[i].ops.total(), 0u);
    EXPECT_GT(kernels[i].cpu_cycles_per_item, 0.0);
  }
}

TEST(Estimate, PipelinedBaseDesign) {
  const auto k = make_stencil5_kernel();
  const auto est = estimate_design(k, HlsDesign{});
  EXPECT_GE(est.ii, 1u);
  EXPECT_GT(est.depth, 1u);
  EXPECT_GT(est.area_units, 0u);
  EXPECT_GE(est.slots, 1u);
  EXPECT_GT(est.pj_per_item, 0.0);
}

TEST(Estimate, NoPipelineIsSlower) {
  const auto k = make_stencil5_kernel();
  HlsDesign pipe;
  pipe.pipeline = true;
  HlsDesign nopipe;
  nopipe.pipeline = false;
  const auto a = estimate_design(k, pipe);
  const auto b = estimate_design(k, nopipe);
  EXPECT_GT(a.items_per_cycle, b.items_per_cycle);
}

TEST(Estimate, UnrollIncreasesAreaAndNeverThroughputLoss) {
  const auto k = make_montecarlo_kernel();  // no recurrence: unroll helps
  HlsDesign u1;
  HlsDesign u8;
  u8.unroll = 8;
  u8.array_partition = 8;
  u8.dram_ports = 4;
  const auto a = estimate_design(k, u1);
  const auto b = estimate_design(k, u8);
  EXPECT_GT(b.area_units, a.area_units);
  EXPECT_GT(b.items_per_cycle, a.items_per_cycle);
}

TEST(Estimate, RecurrenceBoundsII) {
  const auto k = make_matmul_tile_kernel();  // dep distance 1, latency 5
  HlsDesign d;
  d.array_partition = 8;
  d.dram_ports = 4;
  const auto est = estimate_design(k, d);
  EXPECT_GE(est.ii, 5u);  // recurrence floor
}

TEST(Estimate, MemoryPortsBoundII) {
  auto k = make_stencil5_kernel();  // 5 loads + 1 store, no recurrence
  HlsDesign d;
  d.unroll = 4;
  d.array_partition = 1;
  d.dram_ports = 1;  // 2 ports total, 24 mem ops per II
  const auto est = estimate_design(k, d);
  EXPECT_GE(est.ii, 12u);
  HlsDesign wide = d;
  wide.array_partition = 8;
  wide.dram_ports = 4;
  const auto est2 = estimate_design(k, wide);
  EXPECT_LT(est2.ii, est.ii);
}

TEST(Estimate, ModuleEmissionRoundTrip) {
  const auto k = make_montecarlo_kernel();
  const auto est = estimate_design(k, HlsDesign{});
  const auto m = emit_module(k, est, HlsTechnology{}, 8);
  EXPECT_EQ(m.kernel, k.id);
  EXPECT_EQ(m.pipeline_depth, est.depth);
  EXPECT_GE(m.shape.slots(), est.slots);
  EXPECT_EQ(m.bytes_in_per_item, k.bytes_in);
  // Per-item rate of the module matches the estimate within integer
  // rounding of II/unroll.
  const double module_rate =
      m.clock_ghz / static_cast<double>(m.initiation_interval);
  const double est_rate = est.items_per_cycle * 0.25;
  EXPECT_NEAR(module_rate, est_rate, est_rate * 0.01);
}

TEST(Dse, EnumerationCoversGrid) {
  const auto points = enumerate_designs(make_stencil5_kernel());
  // 5 unrolls × 4 partitions × 3 ports × 2 pipeline = 120.
  EXPECT_EQ(points.size(), 120u);
}

TEST(Dse, ParetoFrontIsMonotone) {
  const auto points = enumerate_designs(make_montecarlo_kernel());
  const auto front = pareto_front(points);
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].slots, front[i - 1].slots);
    EXPECT_GT(front[i].items_per_cycle, front[i - 1].items_per_cycle);
  }
}

TEST(Dse, ParetoDominatesAllPoints) {
  const auto points = enumerate_designs(make_cart_split_kernel());
  const auto front = pareto_front(points);
  for (const auto& p : points) {
    bool dominated_or_on_front = false;
    for (const auto& f : front) {
      if (f.slots <= p.slots && f.items_per_cycle >= p.items_per_cycle) {
        dominated_or_on_front = true;
        break;
      }
    }
    EXPECT_TRUE(dominated_or_on_front);
  }
}

TEST(Dse, SelectRespectsAreaBudget) {
  const auto k = make_montecarlo_kernel();
  DseConstraints tight;
  tight.max_slots = 8;
  const auto small = select_design(k, tight);
  ASSERT_TRUE(small.has_value());
  EXPECT_LE(small->slots, 8u);
  DseConstraints loose;
  loose.max_slots = 512;
  const auto big = select_design(k, loose);
  ASSERT_TRUE(big.has_value());
  EXPECT_GE(big->items_per_cycle, small->items_per_cycle);
}

TEST(Dse, SelectFailsOnImpossibleFloor) {
  const auto k = make_matmul_tile_kernel();
  DseConstraints c;
  c.max_slots = 2;
  c.min_items_per_cycle = 100.0;  // unreachable
  EXPECT_FALSE(select_design(k, c).has_value());
}

TEST(Dse, EmitVariantsSpanAreaRange) {
  const auto variants = emit_variants(make_montecarlo_kernel(), 3);
  ASSERT_GE(variants.size(), 2u);
  ASSERT_LE(variants.size(), 3u);
  EXPECT_LT(variants.front().shape.slots(), variants.back().shape.slots());
  for (const auto& v : variants) {
    EXPECT_EQ(v.kernel, make_montecarlo_kernel().id);
  }
}

TEST(Dse, VariantNamesEncodeDesign) {
  const auto variants = emit_variants(make_stencil5_kernel(), 2);
  for (const auto& v : variants) {
    EXPECT_NE(v.name.find("stencil5"), std::string::npos);
  }
}

TEST(FftKernel, RegisteredWithDistinctId) {
  const auto k = make_fft_kernel();
  EXPECT_EQ(k.id, 107u);
  EXPECT_GT(k.ops.total(), 0u);
  // The butterfly is parallel: pipelining should reach II bounded only by
  // memory ports.
  const auto front = pareto_front(enumerate_designs(k));
  EXPECT_FALSE(front.empty());
  EXPECT_GE(front.back().items_per_cycle, 1.0);
}

}  // namespace
}  // namespace ecoscale
