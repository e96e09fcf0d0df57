#include <gtest/gtest.h>

#include "common/check.h"
#include "interconnect/network.h"
#include "interconnect/packet.h"
#include "interconnect/topology.h"

namespace ecoscale {
namespace {

NetworkConfig simple_config() {
  NetworkConfig cfg;
  LinkParams p;
  p.hop_latency = nanoseconds(10);
  p.bandwidth = Bandwidth::from_gib_per_s(1.0);
  p.pj_per_byte = 1.0;
  p.pj_per_packet = 5.0;
  cfg.level_params = {{0, p}, {1, p}, {2, p}};
  return cfg;
}

TEST(Topology, TreeShape) {
  const auto t = make_tree({4, 2});
  EXPECT_EQ(t.endpoint_count(), 8u);
  // 8 endpoints + 2 L0 switches + 1 root.
  EXPECT_EQ(t.vertex_count(), 11u);
}

TEST(Topology, TreeSingleLevel) {
  const auto t = make_tree({8});
  EXPECT_EQ(t.endpoint_count(), 8u);
  EXPECT_EQ(t.vertex_count(), 9u);
}

TEST(Topology, CrossbarShape) {
  const auto t = make_crossbar(5);
  EXPECT_EQ(t.endpoint_count(), 5u);
  EXPECT_EQ(t.vertex_count(), 6u);
}

TEST(Topology, DragonflyShape) {
  const auto t = make_dragonfly(3, 2, 2);
  EXPECT_EQ(t.endpoint_count(), 12u);
}

TEST(Topology, Mesh2dShape) {
  const auto t = make_mesh2d(3, 2);
  EXPECT_EQ(t.endpoint_count(), 6u);
  EXPECT_EQ(t.vertex_count(), 12u);
}

TEST(Topology, AddLinkCreatesTwoDirectedLinks) {
  Topology t;
  const auto a = t.add_vertex(/*is_endpoint=*/true);
  const auto s = t.add_vertex(/*is_endpoint=*/false);
  const auto b = t.add_vertex(/*is_endpoint=*/true);
  t.add_link(a, s, 0);
  t.add_link(s, b, 1);
  EXPECT_EQ(t.endpoint_count(), 2u);
  EXPECT_EQ(t.endpoint(1), b);
  EXPECT_EQ(t.link_count(), 4u);
  ASSERT_EQ(t.out_links(s).size(), 2u);
  const TopoLink& up = t.link(t.out_links(a).front());
  EXPECT_EQ(up.from, a);
  EXPECT_EQ(up.to, s);
  EXPECT_EQ(up.level, 0);
  EXPECT_EQ(t.link(t.out_links(b).front()).level, 1);
  EXPECT_THROW(t.add_link(a, a, 0), CheckError);
  EXPECT_THROW(t.add_link(a, 9, 0), CheckError);
}

TEST(Network, TreeHopCounts) {
  Network net(make_tree({4, 2}), simple_config());
  // Same L0 switch: ep -> sw -> ep = 2 hops.
  EXPECT_EQ(net.hop_count(0, 1), 2);
  // Across nodes: ep -> L0 -> root -> L0 -> ep = 4 hops.
  EXPECT_EQ(net.hop_count(0, 4), 4);
  EXPECT_EQ(net.hop_count(0, 0), 0);
  EXPECT_EQ(net.diameter(), 4);
}

TEST(Network, CrossbarAlwaysTwoHops) {
  Network net(make_crossbar(8), simple_config());
  EXPECT_EQ(net.hop_count(0, 7), 2);
  EXPECT_EQ(net.diameter(), 2);
}

TEST(Network, TreeDiameterGrowsWithLevels) {
  Network two(make_tree({4, 4}), simple_config());
  Network three(make_tree({4, 4, 4}), simple_config());
  EXPECT_EQ(two.diameter(), 4);
  EXPECT_EQ(three.diameter(), 6);
}

TEST(Network, TransferTimingIncludesHopsAndSerialization) {
  Network net(make_crossbar(2), simple_config());
  Packet p{PacketType::kRead, {}, {}, 1024 - kHeaderBytes};
  const auto r = net.send(0, 1, p, 0);
  EXPECT_EQ(r.hops, 2);
  // 2 hop latencies + tail serialization at 1 GiB/s for 1024 B.
  const SimDuration ser = Bandwidth::from_gib_per_s(1.0).transfer_time(1024);
  EXPECT_EQ(r.arrival, 2 * nanoseconds(10) + ser);
}

TEST(Network, SelfSendIsFree) {
  Network net(make_crossbar(2), simple_config());
  Packet p{PacketType::kRead, {}, {}, 64};
  const auto r = net.send(0, 0, p, 123);
  EXPECT_EQ(r.arrival, 123u);
  EXPECT_EQ(r.hops, 0);
  EXPECT_DOUBLE_EQ(r.energy, 0.0);
}

TEST(Network, ContentionDelaysSecondTransfer) {
  Network net(make_crossbar(3), simple_config());
  Packet big{PacketType::kDma, {}, {}, mebibytes(1)};
  const auto first = net.send(0, 2, big, 0);
  const auto second = net.send(1, 2, big, 0);  // shares the sw->ep2 link
  EXPECT_GT(second.arrival, first.arrival);
}

TEST(Network, DisjointPathsDoNotContend) {
  Network net(make_tree({2, 2}), simple_config());
  Packet p{PacketType::kDma, {}, {}, kibibytes(64)};
  const auto a = net.send(0, 1, p, 0);  // inside node 0
  const auto b = net.send(2, 3, p, 0);  // inside node 1
  EXPECT_EQ(a.arrival, b.arrival);
}

TEST(Network, SharedMediumSerializesEverything) {
  auto cfg = simple_config();
  cfg.shared_medium = true;
  Network bus(make_bus(4), cfg);
  Packet p{PacketType::kWrite, {}, {}, kibibytes(16)};
  const auto a = bus.send(0, 1, p, 0);
  const auto b = bus.send(2, 3, p, 0);  // different endpoints, same medium
  EXPECT_GT(b.arrival, a.arrival);
}

TEST(Network, EnergyScalesWithHops) {
  Network net(make_tree({4, 2}), simple_config());
  Packet p{PacketType::kWrite, {}, {}, 1024};
  const auto near = net.send(0, 1, p, 0);
  const auto far = net.send(0, 4, p, 0);
  EXPECT_NEAR(far.energy / near.energy, 2.0, 0.01);  // 4 vs 2 hops
}

TEST(Network, TrafficAccounting) {
  Network net(make_tree({2, 2}), simple_config());
  Packet p{PacketType::kWrite, {}, {}, 100};
  net.send(0, 3, p, 0);  // 4 hops, wire = 116 bytes
  EXPECT_EQ(net.byte_hops(), 4u * 116u);
  EXPECT_EQ(net.total_packets(), 1u);
}

TEST(Network, LevelParamsFallBackToLevelZero) {
  NetworkConfig cfg;
  LinkParams p;
  p.hop_latency = nanoseconds(7);
  cfg.level_params = {{0, p}};  // tree has level-1 links too
  Network net(make_tree({2, 2}), cfg);
  Packet pkt{PacketType::kRead, {}, {}, 0};
  const auto r = net.send(0, 2, pkt, 0);
  EXPECT_EQ(r.hops, 4);
}

TEST(Network, RejectsMissingLevelZero) {
  NetworkConfig cfg;
  cfg.level_params.clear();
  EXPECT_THROW(Network(make_crossbar(2), cfg), CheckError);
}

TEST(Network, LevelDegradationStretchesSerialisationOnly) {
  Packet p{PacketType::kRead, {}, {}, 1024 - kHeaderBytes};
  Network healthy(make_crossbar(2), simple_config());
  Network degraded(make_crossbar(2), simple_config());
  degraded.set_level_degradation(0, 2.0);
  EXPECT_DOUBLE_EQ(degraded.level_degradation(0), 2.0);
  EXPECT_DOUBLE_EQ(degraded.level_degradation(1), 1.0);
  const auto h = healthy.send(0, 1, p, 0);
  const auto d = degraded.send(0, 1, p, 0);
  EXPECT_EQ(d.hops, h.hops);
  const SimDuration hops = 2 * nanoseconds(10);
  const auto ser_h = static_cast<double>(h.arrival - hops);
  const auto ser_d = static_cast<double>(d.arrival - hops);
  EXPECT_NEAR(ser_d, 2.0 * ser_h, 1.0);
}

TEST(Network, RejectsBadDegradation) {
  Network net(make_crossbar(2), simple_config());
  EXPECT_THROW(net.set_level_degradation(0, 0.5), CheckError);
  EXPECT_THROW(net.set_level_degradation(-1, 2.0), CheckError);
  EXPECT_THROW(net.set_level_degradation(7, 2.0), CheckError);
  EXPECT_DOUBLE_EQ(net.level_degradation(7), 1.0);
}

TEST(Packet, WireBytesIncludeHeader) {
  Packet p{PacketType::kRead, {}, {}, 100};
  EXPECT_EQ(p.wire_bytes(), 100 + kHeaderBytes);
  EXPECT_STREQ(packet_type_name(PacketType::kDma), "dma");
}

TEST(Network, DragonflyShorterThanTreeAtScale) {
  auto cfg = simple_config();
  Network tree(make_tree({4, 4, 4}), cfg);
  Network fly(make_dragonfly(8, 4, 2), cfg);
  EXPECT_EQ(tree.endpoint_count(), fly.endpoint_count());
  EXPECT_LT(fly.diameter(), tree.diameter());
}

}  // namespace
}  // namespace ecoscale
