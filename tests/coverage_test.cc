// Targeted coverage for thinner corners: MPI occupancy, chassis
// hierarchy, 3-D Cartesian topologies, and the accelerator memory bound.
#include <gtest/gtest.h>

#include <array>

#include "hls/dse.h"
#include "mpi/mpi.h"
#include "unimem/pgas.h"
#include "worker/worker.h"

namespace ecoscale {
namespace {

// --- MPI sender occupancy (LogP o_s serialisation) --------------------------------

TEST(MpiOccupancy, BackToBackSendsSerialiseOnSenderCpu) {
  MpiConfig cfg;
  MpiWorld world(4, cfg);
  // Two sends from rank 0 at the same instant to different receivers: the
  // second cannot leave before the first's o_send completes.
  const auto a = world.send(0, 1, 64, 0);
  const auto b = world.send(0, 2, 64, 0);
  EXPECT_GE(b.sent, a.sent + cfg.send_overhead);
}

TEST(MpiOccupancy, ReceiverSerialisesIncomingProcessing) {
  MpiConfig cfg;
  MpiWorld world(4, cfg);
  const auto a = world.send(1, 0, 64, 0);
  const auto b = world.send(2, 0, 64, 0);
  // Both arrive around the same time; the second delivery waits for the
  // receiver CPU to finish the first's o_recv.
  EXPECT_GE(std::max(a.delivered, b.delivered),
            std::min(a.delivered, b.delivered) + cfg.recv_overhead);
}

// --- chassis hierarchy -------------------------------------------------------------

TEST(Chassis, CrossChassisCostsMoreThanCrossNode) {
  PgasConfig cfg;
  cfg.chassis = 2;
  cfg.nodes = 4;  // 2 nodes per chassis
  cfg.workers_per_node = 2;
  PgasSystem pgas(cfg);
  // Owner node 0 (chassis 0). Node 1 is same-chassis; node 2 is not.
  const auto data = pgas.alloc(0, 0, kPageSize);
  const auto same_chassis = pgas.load({1, 0}, data, 8, 0);
  const auto cross_chassis = pgas.load({2, 0}, data, 8, 0);
  EXPECT_TRUE(same_chassis.remote);
  EXPECT_TRUE(cross_chassis.remote);
  EXPECT_GT(cross_chassis.finish, same_chassis.finish);
  EXPECT_GT(cross_chassis.energy, same_chassis.energy);
}

TEST(Chassis, DiameterGrowsByTwoHops) {
  PgasConfig flat;
  flat.nodes = 4;
  flat.workers_per_node = 2;
  PgasSystem flat_sys(flat);
  PgasConfig deep = flat;
  deep.chassis = 2;
  PgasSystem deep_sys(deep);
  EXPECT_EQ(flat_sys.network().diameter() + 2,
            deep_sys.network().diameter());
}

TEST(Chassis, UnevenDivisionRejected) {
  PgasConfig cfg;
  cfg.chassis = 3;
  cfg.nodes = 4;
  EXPECT_THROW(PgasSystem{cfg}, CheckError);
}

// --- 3-D Cartesian topology ---------------------------------------------------------

TEST(Cart3d, InteriorHasSixNeighbours) {
  CartTopology cart({3, 3, 3}, false);
  EXPECT_EQ(cart.size(), 27u);
  // Centre of the cube.
  const std::size_t centre = cart.rank_of(std::array<std::size_t, 3>{1, 1, 1});
  EXPECT_EQ(cart.neighbors(centre).size(), 6u);
  const std::size_t corner = cart.rank_of(std::array<std::size_t, 3>{0, 0, 0});
  EXPECT_EQ(cart.neighbors(corner).size(), 3u);
}

TEST(Cart3d, PeriodicTorusUniformDegree) {
  CartTopology torus({2, 3, 4}, true);
  for (std::size_t r = 0; r < torus.size(); ++r) {
    // In a periodic torus with a dim of extent 2, +1 and -1 reach the same
    // rank; neighbors() deduplicates nothing but excludes self-loops never
    // occurring here, so degree is between 5 and 6.
    const auto n = torus.neighbors(r).size();
    EXPECT_GE(n, 5u);
    EXPECT_LE(n, 6u);
  }
}

// --- worker accelerator memory path --------------------------------------------------

TEST(WorkerMemoryBound, StreamingBoundKernelsLimitedByBandwidth) {
  WorkerConfig cfg;
  cfg.accel_mem_bw = Bandwidth::from_gib_per_s(1.0);  // starve the port
  Worker slow({0, 0}, cfg);
  Worker fast({0, 1}, WorkerConfig{});  // 6.4 GiB/s default
  const auto module = emit_variants(make_spmv_kernel(), 1).front();
  constexpr std::uint64_t kItems = 100000;
  const auto a = slow.run_hardware(module, kItems, 0);
  const auto b = fast.run_hardware(module, kItems, 0);
  ASSERT_TRUE(a && b);
  EXPECT_GT(a->finish - a->start, b->finish - b->start);
  // The starved port is the bound: duration ≈ bytes / bandwidth.
  const Bytes moved = kItems * (module.bytes_in_per_item +
                                module.bytes_out_per_item);
  const double expected_ns =
      to_nanoseconds(Bandwidth::from_gib_per_s(1.0).transfer_time(moved));
  EXPECT_GT(to_nanoseconds(a->finish - a->start), 0.9 * expected_ns);
}

// --- HLS: no-pipeline floor ---------------------------------------------------------

TEST(HlsNoPipeline, SequentialDesignScalesWithDepth) {
  const auto k = make_montecarlo_kernel();
  HlsDesign seq;
  seq.pipeline = false;
  const auto est = estimate_design(k, seq);
  EXPECT_EQ(est.ii, est.depth);  // unroll 1: a new item per full body
}

}  // namespace
}  // namespace ecoscale
