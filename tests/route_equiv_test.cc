// Implicit (LCA) routing must be observationally identical to the legacy
// dense route table — latency, hops, energy, per-level byte accounting,
// lookahead and diameter — across randomized hierarchical topologies.
// The dense table (RoutingMode::kDenseTable) is kept precisely to serve as
// the equivalence oracle here.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "interconnect/network.h"
#include "interconnect/packet.h"
#include "interconnect/topology.h"

namespace ecoscale {
namespace {

NetworkConfig leveled_config(RoutingMode mode) {
  NetworkConfig cfg;
  LinkParams l0;
  l0.hop_latency = nanoseconds(20);
  l0.bandwidth = Bandwidth::from_gib_per_s(16.0);
  l0.pj_per_byte = 1.0;
  LinkParams l1;
  l1.hop_latency = nanoseconds(150);
  l1.bandwidth = Bandwidth::from_gib_per_s(8.0);
  l1.pj_per_byte = 6.0;
  LinkParams l2;
  l2.hop_latency = nanoseconds(500);
  l2.bandwidth = Bandwidth::from_gib_per_s(5.0);
  l2.pj_per_byte = 20.0;
  cfg.level_params = {{0, l0}, {1, l1}, {2, l2}};
  cfg.routing = mode;
  return cfg;
}

TEST(RouteEquivalence, RandomizedTreesMatchDenseTableExactly) {
  for (std::uint32_t seed = 0; seed < 120; ++seed) {
    std::mt19937 rng(seed);
    // Sample an ECOSCALE-shaped machine: workers per node, nodes, and an
    // optional chassis level (the three-radix trees PgasSystem builds).
    std::vector<std::size_t> radices;
    radices.push_back(1 + rng() % 5);  // workers per node
    if (rng() % 2 == 0) {
      radices.push_back(1 + rng() % 4);  // nodes per chassis
      radices.push_back(1 + rng() % 3);  // chassis
    } else {
      radices.push_back(1 + rng() % 8);  // nodes
    }
    Network implicit(make_tree(radices), leveled_config(RoutingMode::kAuto));
    Network dense(make_tree(radices),
                  leveled_config(RoutingMode::kDenseTable));
    ASSERT_TRUE(implicit.implicit_routing()) << "seed " << seed;
    ASSERT_FALSE(dense.implicit_routing()) << "seed " << seed;
    const std::size_t eps = implicit.endpoint_count();
    ASSERT_EQ(eps, dense.endpoint_count());

    // Static oracles over every pair (machines here are small).
    for (std::size_t s = 0; s < eps; ++s) {
      for (std::size_t d = 0; d < eps; ++d) {
        ASSERT_EQ(implicit.hop_count(s, d), dense.hop_count(s, d))
            << "seed " << seed << " pair " << s << "->" << d;
        ASSERT_EQ(implicit.route_latency(s, d), dense.route_latency(s, d))
            << "seed " << seed << " pair " << s << "->" << d;
      }
    }
    for (int level = 0; level < 4; ++level) {
      ASSERT_EQ(implicit.min_cross_latency(level),
                dense.min_cross_latency(level))
          << "seed " << seed << " level " << level;
    }
    ASSERT_EQ(implicit.diameter(), dense.diameter()) << "seed " << seed;

    // Dynamic equivalence: the same randomized packet sequence must
    // produce byte-identical arrivals, energy and per-level traffic —
    // contention state included (trees have unique paths, so the two
    // modes must reserve the same link timelines in the same order).
    if (eps >= 2) {
      SimTime now = 0;
      for (int i = 0; i < 64; ++i) {
        const auto src = static_cast<std::size_t>(rng() % eps);
        auto dst = static_cast<std::size_t>(rng() % eps);
        Packet p{static_cast<PacketType>(rng() % kPacketTypeCount),
                 {},
                 {},
                 64 + rng() % 4096};
        const auto a = implicit.send(src, dst, p, now);
        const auto b = dense.send(src, dst, p, now);
        ASSERT_EQ(a.arrival, b.arrival) << "seed " << seed << " send " << i;
        ASSERT_EQ(a.hops, b.hops) << "seed " << seed << " send " << i;
        ASSERT_DOUBLE_EQ(a.energy, b.energy)
            << "seed " << seed << " send " << i;
        now += rng() % 200;
      }
      ASSERT_EQ(implicit.total_packets(), dense.total_packets());
      ASSERT_EQ(implicit.byte_hops(), dense.byte_hops());
      ASSERT_DOUBLE_EQ(implicit.energy().total(), dense.energy().total());
    }
  }
}

TEST(RouteEquivalence, ImplicitStateIsLinearDenseIsQuadratic) {
  Network implicit(make_tree({16, 64}), leveled_config(RoutingMode::kAuto));
  Network dense(make_tree({16, 64}),
                leveled_config(RoutingMode::kDenseTable));
  ASSERT_TRUE(implicit.implicit_routing());
  // 1024 endpoints, 1089 vertices: implicit carries 16 B/vertex; the dense
  // table starts at 8 B per endpoint *pair*.
  EXPECT_LT(implicit.route_state_bytes(), 64u * 1089u);
  EXPECT_GE(dense.route_state_bytes(), 8u * 1024u * 1024u);
}

TEST(RouteEquivalence, NonTreeTopologiesFallBackToDenseRouting) {
  Network mesh(make_mesh2d(4, 4), leveled_config(RoutingMode::kAuto));
  EXPECT_FALSE(mesh.implicit_routing());
  // Still routable and sane.
  EXPECT_GT(mesh.hop_count(0, 15), 0);
  EXPECT_GT(mesh.diameter(), 0);
  Network fly(make_dragonfly(3, 2, 2), leveled_config(RoutingMode::kAuto));
  EXPECT_FALSE(fly.implicit_routing());
  EXPECT_GT(fly.diameter(), 0);
}

}  // namespace
}  // namespace ecoscale
