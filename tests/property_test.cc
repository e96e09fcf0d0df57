// Parameterised property sweeps over module invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "apps/sort.h"
#include "fabric/bitstream.h"
#include "fabric/floorplan.h"
#include "hls/dse.h"
#include "interconnect/network.h"
#include "mpi/mpi.h"
#include "sim/timeline.h"
#include "unimem/pgas.h"

namespace ecoscale {
namespace {

// --- Timeline: reservations never overlap -----------------------------------

class TimelineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineSweep, ReservationsNeverOverlap) {
  Rng rng(GetParam());
  Timeline tl;
  SimTime prev_end = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime ready = rng.uniform_u64(1000000);
    const SimDuration service = 1 + rng.uniform_u64(5000);
    const SimTime start = tl.reserve(ready, service);
    EXPECT_GE(start, ready);
    EXPECT_GE(start, prev_end);  // FIFO: serially reusable
    prev_end = start + service;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineSweep, ::testing::Values(1, 2, 3, 7));

// --- Network: triangle-ish sanity over random pairs -------------------------

class NetworkSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(NetworkSweep, HopsSymmetricAndBounded) {
  const auto [radix, levels] = GetParam();
  std::vector<std::size_t> radices(levels, radix);
  NetworkConfig cfg;
  cfg.level_params = {{0, LinkParams{}}};
  Network net(make_tree(radices), cfg);
  Rng rng(99);
  const int max_hops = static_cast<int>(2 * levels);
  for (int i = 0; i < 200; ++i) {
    const auto a = rng.uniform_u64(net.endpoint_count());
    const auto b = rng.uniform_u64(net.endpoint_count());
    const int ab = net.hop_count(a, b);
    const int ba = net.hop_count(b, a);
    EXPECT_EQ(ab, ba);
    EXPECT_LE(ab, max_hops);
    if (a == b) {
      EXPECT_EQ(ab, 0);
    } else {
      EXPECT_GE(ab, 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 3u)));

// --- Bitstream compression: ratio ordering across density -------------------

class DensitySweep : public ::testing::TestWithParam<double> {};

TEST_P(DensitySweep, CompressionNeverInflatesPastTokenOverhead) {
  const auto bs = generate_bitstream(4, GetParam(), 5);
  const auto rle = compress_rle(bs);
  const auto lz = compress_lz(bs);
  // Worst case token overhead is bounded: 3 bytes per 64-byte frame.
  EXPECT_LE(rle.compressed_size, bs.size() + bs.size() / 16 + 16);
  EXPECT_LE(lz.compressed_size, bs.size() + bs.size() / 16 + 16);
}

INSTANTIATE_TEST_SUITE_P(Densities, DensitySweep,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8, 1.0));

// --- Floorplan: random churn keeps the grid consistent ----------------------

class FloorplanChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloorplanChurn, UsedSlotsAlwaysConsistent) {
  Rng rng(GetParam());
  Floorplan fp(8, 8);
  std::vector<std::pair<RegionId, std::size_t>> live;
  std::size_t expected_used = 0;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.chance(0.4)) {
      const auto idx = rng.uniform_u64(live.size());
      fp.remove(live[idx].first);
      expected_used -= live[idx].second;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ModuleShape shape{1 + rng.uniform_u64(3), 1 + rng.uniform_u64(3)};
      const auto r = fp.place(shape);
      if (r) {
        live.emplace_back(*r, shape.slots());
        expected_used += shape.slots();
      }
    }
    EXPECT_EQ(fp.used_slots(), expected_used);
    EXPECT_LE(fp.largest_free_rectangle(), fp.free_slots());
    const double frag = fp.fragmentation();
    EXPECT_GE(frag, 0.0);
    EXPECT_LE(frag, 1.0);
  }
  // Defragment at the end: everything still live, zero fragmentation.
  fp.defragment();
  EXPECT_EQ(fp.used_slots(), expected_used);
  for (const auto& [region, slots] : live) {
    EXPECT_TRUE(fp.is_live(region));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloorplanChurn,
                         ::testing::Values(11, 22, 33, 44));

// --- HLS: estimates are monotone in the constraint direction ----------------

class KernelSweep : public ::testing::TestWithParam<int> {
 protected:
  KernelIR kernel() const {
    switch (GetParam()) {
      case 0: return make_stencil5_kernel();
      case 1: return make_matmul_tile_kernel();
      case 2: return make_montecarlo_kernel();
      case 3: return make_cart_split_kernel();
      case 4: return make_sha_like_kernel();
      default: return make_spmv_kernel();
    }
  }
};

TEST_P(KernelSweep, ParetoFrontNonEmptyAndOrdered) {
  const auto front = pareto_front(enumerate_designs(kernel()));
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].items_per_cycle, front[i - 1].items_per_cycle);
    EXPECT_GT(front[i].slots, front[i - 1].slots);
  }
}

TEST_P(KernelSweep, BiggerAreaBudgetNeverHurts) {
  double prev = 0.0;
  for (const std::size_t budget : {4u, 8u, 16u, 32u, 64u, 128u}) {
    DseConstraints c;
    c.max_slots = budget;
    const auto pick = select_design(kernel(), c);
    if (!pick) continue;
    EXPECT_GE(pick->items_per_cycle, prev);
    prev = pick->items_per_cycle;
  }
}

TEST_P(KernelSweep, EmittedModulesRespectKernelIO) {
  for (const auto& m : emit_variants(kernel(), 4)) {
    EXPECT_EQ(m.bytes_in_per_item, kernel().bytes_in);
    EXPECT_EQ(m.bytes_out_per_item, kernel().bytes_out);
    EXPECT_GE(m.initiation_interval, 1u);
    EXPECT_GT(m.shape.slots(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelSweep, ::testing::Range(0, 6));

// --- PGAS: remote accesses always cost at least local ------------------------

class PgasShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PgasShapeSweep, RemoteNeverCheaperThanLocal) {
  const auto [nodes, workers] = GetParam();
  PgasConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = workers;
  PgasSystem pgas(cfg);
  const auto local_addr = pgas.alloc(0, 0, kPageSize);
  const auto a = pgas.load({0, 0}, local_addr, 64, 0);
  if (nodes > 1) {
    const auto remote_addr = pgas.alloc(static_cast<NodeId>(nodes - 1), 0,
                                        kPageSize);
    const auto b = pgas.load({0, 0}, remote_addr, 64, 0);
    EXPECT_GE(b.finish, a.finish);
    EXPECT_GE(b.energy, a.energy);
    EXPECT_TRUE(b.remote);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PgasShapeSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u, 8u)));

// --- MPI collectives: finish dominated by arrivals ---------------------------

class CollectiveSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CollectiveSweep, FinishNeverBeforeLastArrival) {
  MpiWorld world(GetParam());
  std::vector<SimTime> arrivals(GetParam());
  Rng rng(5);
  SimTime last = 0;
  for (auto& a : arrivals) {
    a = rng.uniform_u64(milliseconds(2));
    last = std::max(last, a);
  }
  EXPECT_GE(world.allreduce(256, arrivals).finish, last);
  EXPECT_GE(world.alltoall(256, arrivals).finish, last);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 9, 16));

// --- Sample sort: permutation property across rank counts --------------------

class SortSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortSweep, OutputIsSortedPermutation) {
  const auto keys = apps::make_keys(5000, 17);
  const auto trace = apps::sample_sort(keys, GetParam());
  EXPECT_TRUE(std::is_sorted(trace.sorted.begin(), trace.sorted.end()));
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(trace.sorted, ref);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SortSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

}  // namespace
}  // namespace ecoscale
