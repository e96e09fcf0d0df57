// Tests for the online repartitioner (src/repart/, DESIGN.md §7.11):
// the tree-level extraction, hierarchical diffusion invariants, the
// planner's hysteresis/cooldown/rate-limit damping, and — the
// load-bearing property — migration under live KV traffic with a
// scripted whole-node outage matching its pinned fingerprint while every
// key's apply history remains serial
// across the migration edges (the partition-consistency oracle of
// DESIGN.md §7.10, applied to a *moving* partition).
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "repart/diffusion.h"
#include "repart/mesh.h"
#include "repart/repart.h"
#include "runtime/sharded.h"
#include "serve/kvstore.h"
#include "serve/loadgen.h"

namespace ecoscale {
namespace {

using repart::LoadTracker;
using repart::RepartConfig;
using repart::Repartitioner;
using repart::TreeLevels;

ShardedRuntime make_rt(std::size_t nodes, std::vector<std::size_t> radices) {
  ShardedRuntimeConfig cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = 1;
  cfg.internode_radices = std::move(radices);
  return ShardedRuntime(cfg);
}

// --- tree levels ----------------------------------------------------------

TEST(TreeLevels, TreeTopologyRefinesRootDownToSingletons) {
  ShardedRuntime rt = make_rt(8, {4, 2});
  const TreeLevels levels = TreeLevels::from_network(rt.internode(), 8);
  // The chain walks the interconnect's *implicit* tree (the per-vertex
  // parent arrays LCA routing uses), which is rooted at a vertex, not at
  // a symmetric chassis partition — so the tier shapes depend on the
  // encoding. The properties diffusion relies on are structural: one
  // root group, a partition at every tier that only ever refines on the
  // way down, at least one nontrivial intermediate tier (the sibling
  // groups net flow crosses), and the singleton partition at the bottom.
  ASSERT_GE(levels.tier_count(), 3u);
  EXPECT_EQ(levels.group_count.front(), 1u);
  for (std::size_t n = 0; n < 8; ++n) EXPECT_EQ(levels.group_of[0][n], 0u);
  bool intermediate = false;
  for (std::size_t t = 1; t < levels.tier_count(); ++t) {
    EXPECT_GE(levels.group_count[t], levels.group_count[t - 1]);
    intermediate =
        intermediate || (levels.group_count[t] > 1 && levels.group_count[t] < 8);
    // Refinement: two nodes in one tier-t group share their tier-(t-1)
    // group (a child group never straddles parents).
    for (std::size_t a = 0; a < 8; ++a) {
      for (std::size_t b = a + 1; b < 8; ++b) {
        if (levels.group_of[t][a] == levels.group_of[t][b]) {
          EXPECT_EQ(levels.group_of[t - 1][a], levels.group_of[t - 1][b]);
        }
      }
    }
  }
  EXPECT_TRUE(intermediate);
  // Last tier: singletons, ids dense in node order.
  EXPECT_EQ(levels.group_count.back(), 8u);
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_EQ(levels.group_of.back()[n], static_cast<std::uint32_t>(n));
  }
}

TEST(TreeLevels, CrossbarCollapsesToRootPlusLeaves) {
  ShardedRuntime rt = make_rt(4, {});
  const TreeLevels levels = TreeLevels::from_network(rt.internode(), 4);
  ASSERT_GE(levels.tier_count(), 2u);
  EXPECT_EQ(levels.group_count.front(), 1u);
  EXPECT_EQ(levels.group_count.back(), 4u);
}

// --- diffusion ------------------------------------------------------------

TEST(Diffusion, ConservesLoadAndReachesProportionalAtAlphaOne) {
  ShardedRuntime rt = make_rt(8, {4, 2});
  const TreeLevels levels = TreeLevels::from_network(rt.internode(), 8);
  const std::vector<double> load = {80, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<double> cap(8, 1.0);
  const std::vector<double> t1 =
      repart::diffusion_targets(levels, load, cap, 1.0);
  double sum = std::accumulate(t1.begin(), t1.end(), 0.0);
  EXPECT_NEAR(sum, 80.0, 1e-9);
  // Uniform capacity, alpha 1: straight to the proportional share.
  for (const double t : t1) EXPECT_NEAR(t, 10.0, 1e-9);
}

TEST(Diffusion, AlphaDampsTheFlow) {
  ShardedRuntime rt = make_rt(8, {4, 2});
  const TreeLevels levels = TreeLevels::from_network(rt.internode(), 8);
  const std::vector<double> load = {80, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<double> cap(8, 1.0);
  const std::vector<double> t =
      repart::diffusion_targets(levels, load, cap, 0.5);
  EXPECT_NEAR(std::accumulate(t.begin(), t.end(), 0.0), 80.0, 1e-9);
  // The loaded node keeps more than its proportional share (damping), but
  // sheds something; everyone else gains monotonically toward theirs.
  EXPECT_GT(t[0], 10.0);
  EXPECT_LT(t[0], 80.0);
  for (std::size_t n = 1; n < 8; ++n) {
    EXPECT_GT(t[n], 0.0);
    EXPECT_LT(t[n], 10.0 + 1e-9);
  }
  // Hierarchical: the damped cross-chassis flow means the hot chassis
  // (nodes 0..3) retains more aggregate than the cold one.
  const double hot = t[0] + t[1] + t[2] + t[3];
  EXPECT_GT(hot, 40.0);
}

TEST(Diffusion, ZeroCapacityNodeTargetsZeroAtAlphaOne) {
  ShardedRuntime rt = make_rt(4, {});
  const TreeLevels levels = TreeLevels::from_network(rt.internode(), 4);
  const std::vector<double> load = {10, 10, 10, 10};
  const std::vector<double> cap = {1, 1, 0, 1};
  const std::vector<double> t =
      repart::diffusion_targets(levels, load, cap, 1.0);
  EXPECT_NEAR(std::accumulate(t.begin(), t.end(), 0.0), 40.0, 1e-9);
  EXPECT_NEAR(t[2], 0.0, 1e-9);
}

// --- planner damping ------------------------------------------------------

/// Client that only records calls: planner tests care about decisions.
struct RecordingClient : repart::RepartClient {
  struct Call {
    std::uint32_t item, from, to;
    SimTime at;
  };
  std::vector<Call> calls;
  std::uint64_t item_bytes(std::uint32_t) const override { return 64; }
  void migrate_item(std::uint32_t item, std::uint32_t from, std::uint32_t to,
                    SimTime at) override {
    calls.push_back(Call{item, from, to, at});
  }
};

/// Schedules one recording event per epoch window on `shard`, so the
/// engine stays alive for `epochs` epochs of `period` and every window
/// sees the same affinity signal.
template <typename F>
void every_epoch(ShardedRuntime& rt, std::size_t shard, SimDuration period,
                 std::size_t epochs, F record) {
  for (std::size_t e = 0; e < epochs; ++e) {
    const SimTime at = static_cast<SimTime>(e) * period + period / 2;
    rt.shard(shard).schedule_at(at, [record] { record(); });
  }
}

TEST(Repartitioner, LocalityNeedsTwoEpochConfirmationAndMinGain) {
  ShardedRuntime rt = make_rt(2, {});
  RepartConfig cfg;
  cfg.epoch = microseconds(10);
  cfg.max_moves = 8;
  cfg.imbalance = 1e9;  // locality only
  cfg.min_gain = 50;
  cfg.cooldown = 1;
  Repartitioner rp(rt, cfg, /*items=*/2, {0, 0});
  RecordingClient client;
  rp.set_client(&client);
  rp.install();
  // Item 0: strong node-1 affinity every epoch. Item 1: affinity below
  // min_gain — never moves.
  every_epoch(rt, 1, cfg.epoch, 6, [&rp] {
    rp.tracker().record_access(1, 0, 1, 100);
    rp.tracker().record_access(1, 1, 1, 40);
  });
  rt.run();
  ASSERT_EQ(rp.moves().size(), 1u);
  const Repartitioner::Move& m = rp.moves()[0];
  EXPECT_EQ(m.item, 0u);
  EXPECT_EQ(m.from, 0u);
  EXPECT_EQ(m.to, 1u);
  EXPECT_EQ(m.kind, Repartitioner::MoveKind::kLocality);
  // Epoch 1 only establishes the preference; the move lands at epoch 2.
  EXPECT_EQ(m.epoch, 2u);
  EXPECT_EQ(rp.owner(0), 1u);
  EXPECT_EQ(rp.owner(1), 0u);
  ASSERT_EQ(client.calls.size(), 1u);
  EXPECT_EQ(client.calls[0].item, 0u);
  EXPECT_EQ(rp.stats().locality_moves, 1u);
  EXPECT_EQ(rp.stats().moved_bytes, 64u);
}

TEST(Repartitioner, CooldownFreezesAMovedItem) {
  ShardedRuntime rt = make_rt(2, {});
  RepartConfig cfg;
  cfg.epoch = microseconds(10);
  cfg.max_moves = 8;
  cfg.imbalance = 1e9;
  cfg.min_gain = 50;
  cfg.cooldown = 4;
  Repartitioner rp(rt, cfg, /*items=*/1, {0});
  RecordingClient client;
  rp.set_client(&client);
  rp.install();
  // Affinity flips to node 1 for two epochs (moves the item at epoch 2),
  // then back to node 0 from epoch 3 on. The return preference confirms
  // at epoch 4 but the item is frozen until epoch 2 + cooldown = 6.
  every_epoch(rt, 1, cfg.epoch, 2,
              [&rp] { rp.tracker().record_access(1, 0, 1, 100); });
  for (std::size_t e = 2; e < 10; ++e) {
    const SimTime at =
        static_cast<SimTime>(e) * cfg.epoch + cfg.epoch / 2;
    rt.shard(0).schedule_at(at,
                            [&rp] { rp.tracker().record_access(0, 0, 0, 100); });
  }
  rt.run();
  ASSERT_EQ(rp.moves().size(), 2u);
  EXPECT_EQ(rp.moves()[0].epoch, 2u);
  EXPECT_EQ(rp.moves()[0].to, 1u);
  EXPECT_GE(rp.moves()[1].epoch, 6u);
  EXPECT_EQ(rp.moves()[1].to, 0u);
}

TEST(Repartitioner, MaxMovesRateLimitsByGainTimesDistance) {
  ShardedRuntime rt = make_rt(2, {});
  RepartConfig cfg;
  cfg.epoch = microseconds(10);
  cfg.max_moves = 1;
  cfg.imbalance = 1e9;
  cfg.min_gain = 10;
  cfg.cooldown = 1;
  Repartitioner rp(rt, cfg, /*items=*/2, {0, 0});
  rp.install();
  // Both items want node 1; item 1 has the bigger advantage, so the
  // single slot per epoch goes to it first, item 0 follows next epoch.
  every_epoch(rt, 1, cfg.epoch, 4, [&rp] {
    rp.tracker().record_access(1, 0, 1, 60);
    rp.tracker().record_access(1, 1, 1, 200);
  });
  rt.run();
  ASSERT_GE(rp.moves().size(), 2u);
  EXPECT_EQ(rp.moves()[0].item, 1u);
  EXPECT_EQ(rp.moves()[0].epoch, 2u);
  EXPECT_EQ(rp.moves()[1].item, 0u);
  EXPECT_EQ(rp.moves()[1].epoch, 3u);
}

TEST(Repartitioner, BalancePassSpreadsWorkWhenImbalanced) {
  ShardedRuntime rt = make_rt(2, {});
  RepartConfig cfg;
  cfg.epoch = microseconds(10);
  cfg.max_moves = 1;
  cfg.imbalance = 0.10;
  cfg.min_gain = 1000000;  // locality never fires
  cfg.cooldown = 1;
  cfg.alpha = 1.0;
  Repartitioner rp(rt, cfg, /*items=*/4, {0, 0, 0, 0});
  rp.install();
  // All work lands on node 0's items: the balance pass must shed toward
  // node 1, one item per epoch (rate limit).
  every_epoch(rt, 0, cfg.epoch, 4, [&rp] {
    for (std::uint32_t i = 0; i < 4; ++i) {
      rp.tracker().record_work(0, i, 100);
    }
  });
  rt.run();
  ASSERT_GE(rp.moves().size(), 1u);
  EXPECT_EQ(rp.moves()[0].kind, Repartitioner::MoveKind::kBalance);
  EXPECT_EQ(rp.moves()[0].from, 0u);
  EXPECT_EQ(rp.moves()[0].to, 1u);
  EXPECT_GE(rp.stats().balance_moves, 1u);
  // The balanced end state keeps ownership split, not sloshing: with the
  // donor-surplus hysteresis a settled partition stops moving.
  std::size_t on1 = 0;
  for (std::uint32_t i = 0; i < 4; ++i) on1 += rp.owner(i) == 1 ? 1 : 0;
  EXPECT_GE(on1, 1u);
  EXPECT_LE(on1, 3u);
}

TEST(Repartitioner, QuietWindowsPlanNothing) {
  ShardedRuntime rt = make_rt(2, {});
  RepartConfig cfg;
  cfg.epoch = microseconds(10);
  Repartitioner rp(rt, cfg, /*items=*/4, {0, 0, 1, 1});
  rp.install();
  // Keep the sim alive with no recorded traffic at all.
  every_epoch(rt, 0, cfg.epoch, 5, [] {});
  rt.run();
  EXPECT_EQ(rp.moves().size(), 0u);
  EXPECT_GE(rp.stats().epochs, 4u);
  EXPECT_EQ(rp.stats().plan_fingerprint, 1469598103934665603ull);
}

// --- migration under live load + outage: determinism and consistency ------

struct MigrationRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t moves = 0;
  std::uint64_t forwards = 0;
  /// Every node's apply log, concatenated (node, records) for the oracle.
  std::vector<serve::KvApplyRecord> records;
};

MigrationRun run_migration_under_load() {
  ShardedRuntimeConfig rc;
  rc.nodes = 4;
  rc.workers_per_node = 2;
  rc.internode_radices = {2, 2};
  rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
  rc.runtime.distribution = DistributionPolicy::kHomeOnly;
  rc.runtime.repartition_epoch = microseconds(10);
  rc.runtime.repartition_max_moves = 16;
  rc.runtime.repartition_imbalance = 0.5;
  rc.runtime.repartition_min_gain = 64;
  rc.runtime.repartition_cooldown = 2;
  // Whole-node outage mid-run; fast heartbeats so the drain happens while
  // traffic is still flowing (the migration edge under live load).
  rc.node_outages.push_back(ShardedRuntimeConfig::NodeOutage{
      1, microseconds(60), microseconds(60)});
  rc.runtime.faults.heartbeat_period = microseconds(5);
  rc.runtime.faults.detect_timeout = microseconds(15);
  ShardedRuntime rt(rc);

  serve::KvConfig kc;
  kc.key_space = 1 << 10;
  kc.value_bytes = 128;
  kc.service_items = 300;
  kc.repart_blocks = 16;
  serve::KvStore kv(rt, kc);
  Repartitioner rp(rt, kc.repart_blocks, kv.initial_block_owners());
  kv.attach_repartitioner(&rp);
  rp.install();

  serve::LoadGenConfig lg;
  lg.mode = serve::LoadGenConfig::Mode::kOpenLoop;
  lg.offered_load = 2e6;
  lg.requests_per_node = 150;
  lg.zipf_skew = 0.9;
  lg.origin_affinity = 0.9;
  lg.get_fraction = 0.6;  // more SETs, so the moved slots carry state
  serve::LoadGen gen(rt, kv, lg);
  gen.start();
  rt.run();

  MigrationRun out;
  const serve::LoadGen::Report report = gen.report();
  std::uint64_t h = report.fingerprint;
  const std::uint64_t plan = rp.stats().plan_fingerprint;
  for (int b = 0; b < 8; ++b) {
    h ^= (plan >> (8 * b)) & 0xFF;
    h *= 1099511628211ull;
  }
  out.fingerprint = h;
  out.moves = rp.stats().moves;
  out.forwards = kv.cross_stats().forwards;
  for (std::size_t n = 0; n < rt.node_count(); ++n) {
    const auto& log = kv.apply_log(n);
    out.records.insert(out.records.end(), log.begin(), log.end());
  }
  return out;
}

// Captured before the engine's host threads were deleted; every thread
// count the engine offered gave these values.
TEST(MigrationUnderLoad, FingerprintIsPinned) {
  const MigrationRun r = run_migration_under_load();
  EXPECT_EQ(r.fingerprint, 10891043928362377420ull);
  // The scenario really exercised the machinery: the outage drained
  // blocks off the dead node, and at least one stranded request re-homed
  // through a stale-owner forward.
  EXPECT_EQ(r.moves, 14u);
  EXPECT_EQ(r.forwards, 104u);
  EXPECT_GT(r.moves, 0u);
  EXPECT_GT(r.forwards, 0u);
}

TEST(MigrationUnderLoad, PerKeyApplyHistoryStaysSerialAcrossMigrations) {
  MigrationRun run = run_migration_under_load();
  ASSERT_GT(run.moves, 0u);
  // Partition-consistency oracle over a *moving* partition: merge every
  // node's apply records per key in apply-time order and replay. A block
  // migration that lost a write (wiped source read back), double-applied
  // a forwarded request, or let two owners serve the same key in overlap
  // shows up as a GET/DELETE seeing the wrong value or presence.
  std::map<std::uint64_t, std::vector<const serve::KvApplyRecord*>> by_key;
  for (const serve::KvApplyRecord& r : run.records) {
    by_key[r.key].push_back(&r);
  }
  std::size_t checked_gets = 0;
  for (auto& [key, recs] : by_key) {
    std::stable_sort(recs.begin(), recs.end(),
                     [](const serve::KvApplyRecord* a,
                        const serve::KvApplyRecord* b) {
                       if (a->at != b->at) return a->at < b->at;
                       return a->request < b->request;
                     });
    bool present = false;
    std::uint64_t value = 0;
    for (const serve::KvApplyRecord* r : recs) {
      switch (r->op) {
        case serve::KvOp::kGet:
          EXPECT_EQ(r->found, present) << "key " << key;
          EXPECT_EQ(r->returned, present ? value : 0u) << "key " << key;
          ++checked_gets;
          break;
        case serve::KvOp::kSet:
          present = true;
          value = r->value;
          break;
        case serve::KvOp::kDelete:
          EXPECT_EQ(r->found, present) << "key " << key;
          present = false;
          value = 0;
          break;
      }
    }
  }
  EXPECT_GT(checked_gets, 100u);
}

// --- mesh workload sanity -------------------------------------------------

TEST(MeshWorkload, ContiguousOwnersPartitionTheRing) {
  const std::vector<std::uint32_t> owners = contiguous_owners(16, 4);
  ASSERT_EQ(owners.size(), 16u);
  for (std::size_t c = 1; c < owners.size(); ++c) {
    EXPECT_GE(owners[c], owners[c - 1]);  // monotone blocks
  }
  EXPECT_EQ(owners.front(), 0u);
  EXPECT_EQ(owners.back(), 3u);
}

// Captured before the engine's host threads were deleted; every thread
// count the engine offered gave these values.
TEST(MeshWorkload, StaticRunIsPinned) {
  ShardedRuntimeConfig rc;
  rc.nodes = 4;
  rc.workers_per_node = 1;
  ShardedRuntime rt(rc);
  repart::MeshConfig mc;
  mc.cells = 256;
  mc.chords = 64;
  mc.duration = microseconds(50);
  mc.front_period = microseconds(200);
  repart::MeshWorkload mesh(rt, nullptr, mc);
  mesh.start();
  rt.run();
  const repart::MeshWorkload::Report a = mesh.report();
  EXPECT_EQ(a.fingerprint, 12925545973330198934ull);
  EXPECT_EQ(a.updates, 1030u);
  EXPECT_EQ(a.total_reads, 2647u);
}

}  // namespace
}  // namespace ecoscale
