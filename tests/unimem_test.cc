#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/health.h"
#include "interconnect/packet.h"
#include "sim/parallel.h"
#include "sim/timeline.h"
#include "unimem/directory.h"
#include "unimem/pgas.h"
#include "unimem/sync.h"

namespace ecoscale {
namespace {

PgasConfig small_pgas() {
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  return cfg;
}

TEST(Pgas, AllocRegistersOwnership) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(1, 0, 2 * kPageSize);
  EXPECT_EQ(addr.node(), 1);
  EXPECT_EQ(addr.worker(), 0);
  EXPECT_TRUE(pgas.directory().cacheable_at(page_of(addr), 1));
  EXPECT_TRUE(
      pgas.directory().cacheable_at(page_of(addr + kPageSize), 1));
  EXPECT_FALSE(pgas.directory().cacheable_at(page_of(addr), 0));
}

TEST(Pgas, AllocationsDoNotOverlap) {
  PgasSystem pgas(small_pgas());
  const auto a = pgas.alloc(0, 0, 100);
  const auto b = pgas.alloc(0, 0, 100);
  EXPECT_GE(b.offset(), a.offset() + 100);
}

TEST(Pgas, FunctionalStoreRoundTrip) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(0, 1, 3 * kPageSize);
  std::vector<std::uint8_t> data(2 * kPageSize + 100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  // Cross-page write at a non-zero offset.
  pgas.write_bytes(addr + 50, data);
  std::vector<std::uint8_t> out(data.size());
  pgas.read_bytes(addr + 50, out);
  EXPECT_EQ(out, data);
  // Unwritten memory reads as zero.
  std::array<std::uint8_t, 4> zeros{};
  std::array<std::uint8_t, 4> probe{1, 2, 3, 4};
  pgas.read_bytes(pgas.alloc(1, 1, 64), probe);
  EXPECT_EQ(probe, zeros);
}

TEST(Pgas, LocalAccessStaysOnNode) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(0, 0, kPageSize);
  const auto r = pgas.load({0, 1}, addr, 64, 0);  // same node, other worker
  EXPECT_FALSE(r.remote);
  EXPECT_EQ(pgas.local_accesses(), 1u);
  EXPECT_EQ(pgas.remote_accesses(), 0u);
}

TEST(Pgas, RemoteAccessCrossesNodeAndIsNotCached) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(0, 0, kPageSize);
  const auto first = pgas.load({1, 0}, addr, 64, 0);
  EXPECT_TRUE(first.remote);
  EXPECT_FALSE(first.cache_hit);
  // Repeat: still remote, still no cache hit (UNIMEM: remote data is not
  // cacheable at the requester).
  const auto second = pgas.load({1, 0}, addr, 64, first.finish);
  EXPECT_TRUE(second.remote);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(pgas.remote_accesses(), 2u);
}

TEST(Pgas, LocalCachingWarmsUp) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(0, 0, kPageSize);
  const auto miss = pgas.load({0, 0}, addr, 8, 0);
  EXPECT_FALSE(miss.cache_hit);
  const auto hit = pgas.load({0, 0}, addr, 8, miss.finish);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_LT(hit.finish - miss.finish, miss.finish);
}

TEST(Pgas, RemoteCostsMoreThanLocal) {
  PgasSystem pgas(small_pgas());
  const auto local_addr = pgas.alloc(0, 0, kPageSize);
  const auto remote_addr = pgas.alloc(1, 0, kPageSize);
  const auto local = pgas.load({0, 0}, local_addr, 64, 0);
  const auto remote = pgas.load({0, 0}, remote_addr, 64, 0);
  EXPECT_GT(remote.finish, local.finish);
  EXPECT_GT(remote.energy, local.energy);
}

TEST(Pgas, PageMigrationFlipsOwnershipAndCacheability) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(0, 0, kPageSize);
  const PageId page = page_of(addr);
  // Warm the old owner's cache so migration must flush.
  (void)pgas.load({0, 0}, addr, 8, 0);
  const auto mig = pgas.migrate_page(page, 1, microseconds(10));
  EXPECT_GT(mig.finish, microseconds(10));
  EXPECT_EQ(mig.bytes_moved, kPageSize);
  EXPECT_TRUE(pgas.directory().cacheable_at(page, 1));
  // The flushed line is gone from the old owner's cache.
  EXPECT_EQ(pgas.cache({0, 0}).state(addr.raw() / 64), LineState::kInvalid);
  // Node 0's access is now remote.
  const auto after = pgas.load({0, 0}, addr, 8, mig.finish);
  EXPECT_TRUE(after.remote);
}

TEST(Pgas, MigrationToSelfIsFree) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(0, 0, kPageSize);
  const auto mig = pgas.migrate_page(page_of(addr), 0, 100);
  EXPECT_EQ(mig.finish, 100u);
  EXPECT_EQ(mig.bytes_moved, 0u);
}

TEST(Pgas, TaskMigrationCheaperThanBulkData) {
  PgasSystem pgas(small_pgas());
  const auto addr = pgas.alloc(1, 0, mebibytes(1));
  // Move task: one closure message.
  const auto task = pgas.migrate_task({0, 0}, {1, 0}, 0);
  // Move data: 1 MiB DMA from the remote node.
  const auto data = pgas.dma({0, 0}, addr, mebibytes(1), false, 0);
  EXPECT_LT(task.finish, data.finish);
  EXPECT_LT(task.energy, data.energy);
}

TEST(Pgas, TaskMigrationToSelfIsFree) {
  PgasSystem pgas(small_pgas());
  const auto r = pgas.migrate_task({0, 0}, {0, 0}, 42);
  EXPECT_EQ(r.finish, 42u);
  EXPECT_DOUBLE_EQ(r.energy, 0.0);
}

TEST(Pgas, AccessToUnregisteredPageThrows) {
  PgasSystem pgas(small_pgas());
  const GlobalAddress bogus(0, 0, 0x100000);
  EXPECT_THROW(pgas.load({0, 0}, bogus, 8, 0), CheckError);
}

TEST(Pgas, FlatCoordRoundTrip) {
  PgasSystem pgas(small_pgas());
  for (std::size_t i = 0; i < pgas.worker_count(); ++i) {
    EXPECT_EQ(pgas.flat(pgas.coord(i)), i);
  }
}

// --- synchronisation ---------------------------------------------------------

class BarrierTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BarrierTest, TreeBarrierReleasesAfterLastArrival) {
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = GetParam();
  PgasSystem pgas(cfg);
  std::vector<WorkerCoord> workers;
  std::vector<SimTime> arrivals;
  for (std::size_t i = 0; i < pgas.worker_count(); ++i) {
    workers.push_back(pgas.coord(i));
    arrivals.push_back(microseconds(i));  // straggler is the last worker
  }
  const auto r = tree_barrier(pgas, workers, arrivals);
  EXPECT_GT(r.finish, arrivals.back());
  EXPECT_GT(r.messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierTest, ::testing::Values(1, 2, 4, 8));

TEST(Barrier, TreeBeatsFlatAtScale) {
  PgasConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 8;
  PgasSystem pgas(cfg);
  std::vector<WorkerCoord> workers;
  std::vector<SimTime> arrivals;
  for (std::size_t i = 0; i < pgas.worker_count(); ++i) {
    workers.push_back(pgas.coord(i));
    arrivals.push_back(0);
  }
  PgasSystem pgas2(cfg);  // fresh timelines for a fair comparison
  const auto tree = tree_barrier(pgas, workers, arrivals);
  const auto flat = flat_barrier(pgas2, workers, arrivals);
  EXPECT_LT(tree.finish, flat.finish);
}

TEST(Barrier, SingleWorkerTrivial) {
  PgasSystem pgas(small_pgas());
  const std::array workers{WorkerCoord{0, 0}};
  const std::array arrivals{microseconds(5)};
  const auto r = tree_barrier(pgas, workers, arrivals);
  EXPECT_EQ(r.finish, microseconds(5));
  EXPECT_EQ(r.messages, 0u);
}

TEST(Barrier, TwoWorkerTreeEqualsFlat) {
  // With two participants both topologies degenerate to the same
  // message pattern (one combine token, one release token), and since
  // both barriers now charge the sender-side issue cost identically the
  // results must be *exactly* equal — this is the accounting-parity
  // check for the token-issue fix.
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 1;
  const std::array workers{WorkerCoord{0, 0}, WorkerCoord{1, 0}};
  const std::array arrivals{microseconds(1), microseconds(3)};
  PgasSystem tree_sys(cfg);
  PgasSystem flat_sys(cfg);  // fresh network timelines for each
  const auto tree = tree_barrier(tree_sys, workers, arrivals);
  const auto flat = flat_barrier(flat_sys, workers, arrivals);
  EXPECT_EQ(tree.finish, flat.finish);
  EXPECT_EQ(tree.messages, flat.messages);
  EXPECT_DOUBLE_EQ(tree.energy, flat.energy);
  EXPECT_EQ(tree.messages, 2u);
}

TEST(Barrier, ReleaseBroadcastSerializesOnSenderCpu) {
  // Replay flat_barrier's token accounting against a reference model:
  // every token issue reserves kBarrierTokenIssue on the sender's CPU
  // timeline and every delivery reserves kBarrierTokenProcess on the
  // receiver's, so the hub's two release sends depart back-to-back
  // rather than at the same instant. The replayed finish must match the
  // real barrier exactly.
  PgasConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 1;
  const std::array workers{WorkerCoord{0, 0}, WorkerCoord{1, 0},
                           WorkerCoord{2, 0}};
  const std::array arrivals{SimTime{0}, nanoseconds(10), nanoseconds(20)};

  PgasSystem sys(cfg);
  const auto real = flat_barrier(sys, workers, arrivals);

  PgasSystem ref(cfg);  // identical fresh system for the replay
  std::vector<Timeline> cpus(ref.worker_count());
  const auto send = [&](WorkerCoord from, WorkerCoord to, SimTime ready) {
    const SimTime go =
        cpus[ref.flat(from)].reserve_until(ready, kBarrierTokenIssue);
    Packet p{PacketType::kSync, from, to, 8};
    const auto t = ref.network().send(ref.flat(from), ref.flat(to), p, go);
    return cpus[ref.flat(to)].reserve_until(t.arrival, kBarrierTokenProcess);
  };
  const WorkerCoord hub = workers[0];
  SimTime all_in = arrivals[0];
  for (std::size_t i = 1; i < workers.size(); ++i) {
    all_in = std::max(all_in, send(workers[i], hub, arrivals[i]));
  }
  // The hub's release issues serialize on its own CPU: the second send
  // cannot depart before the first one's issue slot completes.
  const SimTime hub_free_before = cpus[ref.flat(hub)].next_free();
  SimTime done = all_in;
  for (std::size_t i = 1; i < workers.size(); ++i) {
    done = std::max(done, send(hub, workers[i], all_in));
  }
  EXPECT_EQ(cpus[ref.flat(hub)].next_free(),
            std::max(hub_free_before, all_in) +
                (workers.size() - 1) * kBarrierTokenIssue);
  EXPECT_EQ(real.finish, done);
  EXPECT_EQ(real.messages, 2u * (workers.size() - 1));
}

TEST(Mailbox, SignalDeliversWithInterruptLatency) {
  PgasSystem pgas(small_pgas());
  const auto r = mailbox_signal(pgas, {0, 0}, {1, 1}, 0);
  EXPECT_GT(r.finish, nanoseconds(500));
  EXPECT_EQ(r.messages, 1u);
}

// --- dead-owner failover edge cases ------------------------------------------

TEST(PgasFailover, RequesterNodeDownFallsBackToReplica) {
  // The owner is dead AND the requester's own node is down: the page
  // cannot re-home at the requester, so it lands on the lowest surviving
  // node (the replica holder) instead.
  PgasConfig cfg;
  cfg.nodes = 3;
  cfg.workers_per_node = 1;
  cfg.fault_retry.timeout = microseconds(2);
  cfg.fault_retry.backoff = microseconds(1);
  PgasSystem pgas(cfg);
  HealthRegistry health(3, 1);
  pgas.set_health(&health);
  const auto addr = pgas.alloc(2, 0, kPageSize);
  health.mark_down(2);  // page owner
  health.mark_down(1);  // the requester's own node
  const auto r = pgas.load({1, 0}, addr, 64, 0);
  EXPECT_EQ(pgas.remote_retries(), cfg.fault_retry.max_retries);
  EXPECT_EQ(pgas.page_failovers(), 1u);
  SimDuration retry_floor = 0;
  for (std::size_t a = 0; a < cfg.fault_retry.max_retries; ++a) {
    retry_floor += cfg.fault_retry.wait(a);
  }
  EXPECT_GE(r.finish, retry_floor);
  EXPECT_TRUE(r.remote);  // node 0 now owns it; the requester is node 1
  EXPECT_TRUE(pgas.directory().cacheable_at(page_of(addr), 0));
  EXPECT_FALSE(pgas.directory().cacheable_at(page_of(addr), 1));
  // The survivor's own accesses are plain local loads from here on, with
  // no further retries or failovers.
  const auto after = pgas.load({0, 0}, addr, 8, r.finish);
  EXPECT_FALSE(after.remote);
  EXPECT_EQ(pgas.remote_retries(), cfg.fault_retry.max_retries);
  EXPECT_EQ(pgas.page_failovers(), 1u);
}

TEST(PgasFailover, RepairRacingFinalRetryAvoidsFailover) {
  // A repair that lands between the final retry's timeout and its
  // liveness re-check wins the race: the access proceeds against the
  // original owner and the page never moves. The on_retry hook fires at
  // exactly that point, which is how the litmus harness scripts the race
  // deterministically.
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 1;
  cfg.fault_retry.timeout = microseconds(2);
  cfg.fault_retry.backoff = microseconds(1);
  PgasSystem pgas(cfg);
  HealthRegistry health(2, 1);
  pgas.set_health(&health);
  const auto addr = pgas.alloc(1, 0, kPageSize);
  health.mark_down(1);
  std::size_t retries_seen = 0;
  PgasObserver obs;
  obs.on_retry = [&](WorkerCoord, PageId, std::size_t attempt, SimTime) {
    retries_seen = attempt;
    if (attempt == cfg.fault_retry.max_retries) health.mark_up(1);
  };
  pgas.set_observer(&obs);
  const auto r = pgas.load({0, 0}, addr, 64, 0);
  pgas.set_observer(nullptr);
  // Every retry attempt was burned, but no failover happened.
  EXPECT_EQ(retries_seen, cfg.fault_retry.max_retries);
  EXPECT_EQ(pgas.remote_retries(), cfg.fault_retry.max_retries);
  EXPECT_EQ(pgas.page_failovers(), 0u);
  EXPECT_TRUE(r.remote);  // served by the original, repaired owner
  EXPECT_TRUE(pgas.directory().cacheable_at(page_of(addr), 1));
  EXPECT_FALSE(pgas.directory().cacheable_at(page_of(addr), 0));
}

// --- cross-node ownership directory ------------------------------------------

constexpr SimDuration kDirHop = nanoseconds(200);

ShardedConfig dir_engine(std::size_t nodes) {
  ShardedConfig sc;
  sc.shards = nodes;
  sc.lookahead = kDirHop;
  return sc;
}

/// Counts the protocol's callbacks per node; each slot is written only on
/// its node's shard.
struct CountingClient : DirectoryClient {
  explicit CountingClient(ShardedSimulator& engine)
      : sim(engine),
        served(engine.shard_count(), 0),
        served_at(engine.shard_count(), 0),
        installs(engine.shard_count(), 0),
        migrated_at(engine.shard_count(), 0) {}
  void serve(std::size_t node, const DirRequest&) override {
    ++served[node];
    served_at[node] = sim.shard(node).now();
  }
  void installed(std::size_t node, const DirRequest&, bool) override {
    ++installs[node];
  }
  void migrated(const DirRequest& req) override { ++migrated_at[req.from]; }
  ShardedSimulator& sim;
  std::vector<int> served;
  std::vector<SimTime> served_at;
  std::vector<int> installs;
  std::vector<int> migrated_at;
};

TEST(ShardedDirectory, PauseFlipUpdatesEveryView) {
  // Both forms: the pause-only directory (one shared row) and the
  // protocol directory (one row per node).
  ShardedSimulator sim(dir_engine(4));
  CountingClient client(sim);
  ShardedDirectory shared(4, {0, 1, 2, 3});
  ShardedDirectory per_node(sim, kDirHop, RetryPolicy{}, client,
                            {0, 1, 2, 3});
  for (ShardedDirectory* dir : {&shared, &per_node}) {
    EXPECT_EQ(dir->transfer_at_pause(1, 3), 1u);
    for (std::size_t n = 0; n < 4; ++n) EXPECT_EQ(dir->view(n, 1), 3u);
    EXPECT_EQ(dir->holder(1), 3u);
    EXPECT_TRUE(dir->holds(3, 1));
    EXPECT_FALSE(dir->holds(1, 1));
    // Other items keep their owners.
    EXPECT_EQ(dir->holder(0), 0u);
    EXPECT_EQ(dir->holder(3), 3u);
    EXPECT_EQ(dir->view(2, 0), 0u);
  }
}

TEST(ShardedDirectory, PauseOnlyDirectoryRefusesTheProtocol) {
  ShardedDirectory dir(2, {0});
  DirRequest req;
  EXPECT_THROW(dir.request(req), CheckError);
  EXPECT_THROW(dir.update(1, 0, 1), CheckError);
  EXPECT_EQ(dir.holder(0), 0u);
}

TEST(ShardedDirectory, InFlightTransferKeepsExactlyOneHolder) {
  // Node 2 migrates item 0 from node 0 to node 1. Every shard samples
  // whether it holds the item every 50 ns (its own row only); no sample
  // instant may see two holders, and the run ends with one.
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kProbes = 40;
  ShardedSimulator sim(dir_engine(kNodes));
  CountingClient client(sim);
  ShardedDirectory dir(sim, kDirHop, RetryPolicy{}, client, {0});
  std::vector<std::vector<char>> held(kNodes, std::vector<char>(kProbes, 0));
  for (std::size_t n = 0; n < kNodes; ++n) {
    for (std::size_t k = 0; k < kProbes; ++k) {
      sim.shard(n).schedule_at(nanoseconds(50) * k + 1, [&, n, k] {
        held[n][k] = dir.holds(n, 0) ? 1 : 0;
      });
    }
  }
  DirRequest req;
  req.item = 0;
  req.from = 2;
  req.migrate = true;
  req.to = 1;
  sim.shard(2).schedule_at(1, [&] { dir.request(req); });
  sim.run();
  for (std::size_t k = 0; k < kProbes; ++k) {
    int holders = 0;
    for (std::size_t n = 0; n < kNodes; ++n) holders += held[n][k];
    EXPECT_LE(holders, 1) << "probe " << k;
  }
  EXPECT_EQ(dir.holder(0), 1u);
  for (std::size_t n = 0; n < kNodes; ++n) EXPECT_EQ(dir.view(n, 0), 1u);
  EXPECT_EQ(client.installs[1], 1);
  EXPECT_EQ(client.migrated_at[2], 1);
  EXPECT_EQ(dir.counters().migrations, 1u);
}

TEST(ShardedDirectory, PauseTransferOfAnItemInFlightIsRefused) {
  // Pause between the release at node 0 and the install at node 1: no
  // node holds the item, so a pause flip must fail loudly instead of
  // creating a second holder when the install lands.
  ShardedSimulator sim(dir_engine(2));
  CountingClient client(sim);
  ShardedDirectory dir(sim, kDirHop, RetryPolicy{}, client, {0});
  DirRequest req;
  req.item = 0;
  req.from = 0;
  req.migrate = true;
  req.to = 1;
  sim.shard(0).schedule_at(1, [&] { dir.request(req); });
  EXPECT_FALSE(sim.run_until(kDirHop));
  EXPECT_FALSE(dir.holds(0, 0));
  EXPECT_FALSE(dir.holds(1, 0));
  EXPECT_THROW(dir.holder(0), CheckError);
  EXPECT_THROW(dir.transfer_at_pause(0, 0), CheckError);
  sim.run();
  EXPECT_EQ(dir.holder(0), 1u);
}

TEST(ShardedDirectory, StaleBroadcastNeitherDisplacesAHolderNorSelfPoints) {
  ShardedSimulator sim(dir_engine(3));
  CountingClient client(sim);
  ShardedDirectory dir(sim, kDirHop, RetryPolicy{}, client, {0});
  // A late "node 2 holds it" reaches the holder: the holder keeps it.
  dir.update(0, 0, 2);
  EXPECT_TRUE(dir.holds(0, 0));
  // "Node 1 holds it" reaching node 1, which does not: no second holder.
  dir.update(1, 0, 1);
  EXPECT_EQ(dir.view(1, 0), 0u);
  EXPECT_EQ(dir.holder(0), 0u);
  // A non-holder does take a fresh owner hint.
  dir.update(1, 0, 2);
  EXPECT_EQ(dir.view(1, 0), 2u);
  EXPECT_EQ(dir.holder(0), 0u);
}

TEST(ShardedDirectory, HopBoundFiresOnAForwardingCycle) {
  // Stale hints leave nodes 1 and 2 pointing at each other while node 0
  // holds the item: a request from node 1 would circle forever, so the
  // hop bound must stop the run.
  ShardedSimulator sim(dir_engine(3));
  CountingClient client(sim);
  ShardedDirectory dir(sim, kDirHop, RetryPolicy{}, client, {0});
  dir.update(1, 0, 2);
  dir.update(2, 0, 1);
  DirRequest req;
  req.item = 0;
  req.from = 1;
  sim.shard(1).schedule_at(1, [&] { dir.request(req); });
  try {
    sim.run();
    FAIL() << "a forwarding cycle must trip the hop bound";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("does not converge"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(client.served[0], 0);
}

TEST(RetryPolicy, SameDeadOwnerCostsTheSameAttemptsInBothDirectories) {
  // One contract, two implementations: PgasSystem (in-machine) and the
  // sharded directory each spend max_retries timed-out attempts on a dead
  // owner, then fail the page over to the requester exactly once.
  RetryPolicy policy;
  policy.max_retries = 4;
  policy.timeout = microseconds(2);
  policy.backoff = microseconds(1);

  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 1;
  cfg.fault_retry = policy;
  PgasSystem pgas(cfg);
  HealthRegistry health(2, 1);
  pgas.set_health(&health);
  const auto addr = pgas.alloc(1, 0, kPageSize);
  health.mark_down(1);
  pgas.load({0, 0}, addr, 64, 0);

  ShardedSimulator sim(dir_engine(2));
  CountingClient client(sim);
  ShardedDirectory dir(sim, kDirHop, policy, client, {1});
  dir.set_alive(1, false);
  DirRequest req;
  req.item = 0;
  req.from = 0;
  sim.shard(0).schedule_at(0, [&] { dir.request(req); });
  sim.run();

  const ShardedDirectory::Counters c = dir.counters();
  EXPECT_EQ(pgas.remote_retries(), policy.max_retries);
  EXPECT_EQ(c.retries, pgas.remote_retries());
  EXPECT_EQ(c.nacks, policy.max_retries + 1);  // the first try, then each
  EXPECT_EQ(pgas.page_failovers(), 1u);
  EXPECT_EQ(c.failovers, pgas.page_failovers());
  EXPECT_EQ(dir.holder(0), 0u);
  EXPECT_EQ(client.served[0], 1);
  SimDuration waits = 0;
  for (std::size_t k = 0; k < policy.max_retries; ++k) waits += policy.wait(k);
  EXPECT_GE(client.served_at[0], waits);
}

}  // namespace
}  // namespace ecoscale
