// Tests for the sharded simulation engine (sim/parallel.h): the
// conservative post() contract, the event key's tie order, inbox growth,
// the echo cap, run_until() pauses, exceptions, and pinned hashes and run
// counts for raw engine workloads and for a mixed UNIMEM+UNILOGIC
// workload on ShardedRuntime. The pins never move without a stated
// reason; tests/engine_oracle_test.cc checks the event order against an
// independent global queue.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "hls/dse.h"
#include "hls/ir.h"
#include "interconnect/network.h"
#include "interconnect/topology.h"
#include "runtime/sharded.h"
#include "sim/parallel.h"
#include "unimem/pgas.h"

namespace ecoscale {
namespace {

// FNV-1a over a stream of u64 words (the same recipe the kernel
// determinism lock in sim_test.cc uses).
struct TraceHasher {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

// Background load: `chains` chains of no-op events on `sim`, one every
// `period` from `start` until before `stop`, for tests that want hundreds
// of events a run on top of their own sparse workload. Returns the
// number of events added.
std::uint64_t add_ticks(Simulator& sim, std::size_t chains, SimTime start,
                        SimTime stop, SimDuration period = 1) {
  struct Tick {
    Simulator* sim;
    SimTime stop;
    SimDuration period;
    void operator()() const {
      if (sim->now() + period < stop) sim->schedule_after(period, *this);
    }
  };
  for (std::size_t c = 0; c < chains; ++c) {
    sim.schedule_at(start, Tick{&sim, stop, period});
  }
  return chains * ((stop - start + period - 1) / period);
}

// --- post() contract --------------------------------------------------------

TEST(ShardedSimulator, PostOutsideARunningActionIsRejected) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 10;
  ShardedSimulator engine(sc);
  EXPECT_THROW(engine.post(0, 1, 100, [] {}), CheckError);
}

TEST(ShardedSimulator, PostInsideTheLookaheadWindowIsRejected) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 100;
  ShardedSimulator engine(sc);
  engine.shard(0).schedule_at(50, [&engine] {
    engine.post(0, 1, engine.shard(0).now() + 99, [] {});  // < lookahead
  });
  EXPECT_THROW(engine.run(), CheckError);
}

TEST(ShardedSimulator, PostFromAnotherShardsActionIsRejected) {
  ShardedConfig sc;
  sc.shards = 3;
  sc.lookahead = 10;
  ShardedSimulator engine(sc);
  // Shard 0's action claims to post as shard 1.
  engine.shard(0).schedule_at(5, [&engine] {
    engine.post(1, 2, engine.shard(1).now() + 100, [] {});
  });
  EXPECT_THROW(engine.run(), CheckError);
  EXPECT_EQ(engine.messages(), 0u);
}

TEST(ShardedSimulator, PostToTheSameShardIsRejected) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 10;
  ShardedSimulator engine(sc);
  engine.shard(0).schedule_at(5, [&engine] {
    engine.post(0, 0, engine.shard(0).now() + 100, [] {});
  });
  EXPECT_THROW(engine.run(), CheckError);
  EXPECT_EQ(engine.messages(), 0u);
}

// --- deterministic cross-shard workload -------------------------------------

// Per-shard actor mesh: every shard runs self-rescheduling actors that mix
// their execution order into the shard's own hash; a deterministic fraction
// of fires post a message to another shard, which mixes into the
// *destination's* hash when it executes there, so the combined hash pins
// the engine's event order.
struct MeshActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  TraceHasher* hashes = nullptr;  // one per shard, indexed by shard id
  std::uint64_t remaining = 0;
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(shard);
    TraceHasher& hash = hashes[shard];
    hash.mix(sim.now());
    hash.mix(remaining);
    if (remaining == 0) return;
    --remaining;
    if (rng.uniform_u64(4) == 0 && shards > 1) {
      const std::size_t to =
          (shard + 1 + rng.uniform_u64(shards - 1)) % shards;
      const SimTime t =
          sim.now() + eng->lookahead() + rng.uniform_u64(300);
      ShardedSimulator* e = eng;
      TraceHasher* dest = &hashes[to];
      const std::uint64_t payload = rng.uniform_u64(1u << 30);
      const std::size_t from = shard;
      eng->post(shard, to, t, [e, to, dest, payload, from] {
        dest->mix(e->shard(to).now());
        dest->mix(payload);
        dest->mix(from);
      });
    }
    sim.schedule_after(1 + rng.uniform_u64(97), [this] { fire(); });
  }
};

std::uint64_t mesh_workload_hash(std::size_t shards,
                                 std::size_t mailbox_capacity,
                                 std::uint64_t fires_per_actor,
                                 std::size_t threads = 1) {
  ShardedConfig sc;
  sc.shards = shards;
  sc.lookahead = 200;
  sc.mailbox_capacity = mailbox_capacity;
  sc.threads = threads;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(shards);
  std::vector<std::unique_ptr<MeshActor>> actors;
  for (std::size_t s = 0; s < shards; ++s) {
    for (int a = 0; a < 4; ++a) {
      actors.push_back(std::make_unique<MeshActor>());
      MeshActor& actor = *actors.back();
      actor.eng = &engine;
      actor.shard = s;
      actor.shards = shards;
      actor.hashes = hashes.data();
      actor.remaining = fires_per_actor;
      actor.rng = Rng(0xBEEF + s * 16 + a);
      engine.shard(s).schedule_at(1 + a, [&actor] { actor.fire(); });
    }
  }
  engine.run();
  TraceHasher combined;
  for (const TraceHasher& h : hashes) combined.mix(h.h);
  combined.mix(engine.events_processed());
  combined.mix(engine.messages());
  combined.mix(engine.windows());
  EXPECT_GT(engine.messages(), 0u);
  return combined.h;
}

// Re-pinned when events were keyed by (time, origin, counter) (ROADMAP
// item 9: canonical event key); the hash folds in the run count.
constexpr std::uint64_t kMeshHash = 4214805800217996465ull;

TEST(ShardedSimulator, MeshWorkloadHashIsPinned) {
  EXPECT_EQ(mesh_workload_hash(8, 1024, 400), kMeshHash);
}

// --- pinned run schedule: sparse ----------------------------------------

// One actor per shard, firing every few hundred ps and posting every third
// fire to a random peer at a ring-distance latency plus a little jitter:
// a few events per shard run, the kv_open regime.
struct SparseActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  TraceHasher* hashes = nullptr;
  std::uint64_t remaining = 0;
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(shard);
    hashes[shard].mix(sim.now());
    hashes[shard].mix(remaining);
    if (remaining == 0) return;
    --remaining;
    const std::size_t n = eng->shard_count();
    if (rng.uniform_u64(3) == 0) {
      const std::size_t to = (shard + 1 + rng.uniform_u64(n - 1)) % n;
      const std::size_t d = shard > to ? shard - to : to - shard;
      const SimTime t = sim.now() + eng->lookahead() +
                        15 * std::min(d, n - d) + rng.uniform_u64(40);
      ShardedSimulator* e = eng;
      TraceHasher* dest = &hashes[to];
      const std::size_t from = shard;
      eng->post(shard, to, t, [e, to, dest, from] {
        dest->mix(e->shard(to).now());
        dest->mix(from);
      });
    }
    sim.schedule_after(100 + rng.uniform_u64(400), [this] { fire(); });
  }
};

struct PinnedSchedule {
  std::uint64_t runs = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> hashes;
};

PinnedSchedule sparse_ring_run() {
  constexpr std::size_t kShards = 8;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = 40;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(kShards);
  std::vector<SparseActor> actors(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    actors[s] = SparseActor{&engine, s, hashes.data(), 400, Rng(0x5A5E + s)};
    SparseActor* a = &actors[s];
    engine.shard(s).schedule_at(1 + 7 * s, [a] { a->fire(); });
  }
  engine.run();
  PinnedSchedule out;
  out.runs = engine.windows();
  EXPECT_EQ(engine.shard_windows(), out.runs);
  EXPECT_EQ(engine.stalled_shard_windows(), 0u);
  out.messages = engine.messages();
  out.events = engine.events_processed();
  for (const TraceHasher& h : hashes) out.hashes.push_back(h.h);
  return out;
}

// A hash alone cannot tell a bookkeeping bug that shifts the schedule (a
// bound too tight, a leaf never replayed) from a reordering. This pins the
// run count and every shard's own hash. Re-pinned when events were keyed
// by (time, origin, counter) (ROADMAP item 9: canonical event key): the
// run count, and the hashes of shards 4 and 5, which hold same-time
// events that the key orders differently from the round engine's merge
// (both engines retire events in time order, so only ties can move); the
// other six hashes are the round engine's.
TEST(ShardedSimulator, SparseRingScheduleIsPinned) {
  const std::vector<std::uint64_t> kHashes = {
      2827401570427685187ull,  478695462841783085ull,
      17642853541103510482ull, 10457630523463739846ull,
      6838835034638304183ull,  6612912859612419706ull,
      7733550416784480553ull,  14002279286810579532ull};
  const PinnedSchedule r = sparse_ring_run();
  EXPECT_EQ(r.runs, 3771u);
  EXPECT_EQ(r.messages, 1076u);
  EXPECT_EQ(r.events, 4284u);
  EXPECT_EQ(r.hashes, kHashes);
}

// Inbox stress: a 4-message reservation (one slot a shard) under a
// message rate far beyond it grows the inboxes, and the order (the hash)
// is the one a roomy reservation gives.
TEST(ShardedSimulator, InboxesGrowPastTheirReservationInOrder) {
  EXPECT_EQ(mesh_workload_hash(4, 4, 800), mesh_workload_hash(4, 1024, 800));
  EXPECT_EQ(mesh_workload_hash(4, 4, 800), 12151710738761179435ull);
}

// Each shard reserves its share of mailbox_capacity on its first incoming
// message, so an engine that posted nothing holds no inbox bytes, and a
// burst past the reservation is delivered whole (spills are always 0).
TEST(ShardedSimulator, InboxReservationIsMadeOnTheFirstMessage) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 10;
  sc.mailbox_capacity = 4;
  ShardedSimulator engine(sc);
  EXPECT_EQ(engine.mailbox_state_bytes(), 0u);
  int delivered = 0;
  engine.shard(0).schedule_at(5, [&engine, &delivered] {
    for (int i = 0; i < 6; ++i) {
      engine.post(0, 1, engine.shard(0).now() + 10,
                  [&delivered] { ++delivered; });
    }
  });
  engine.run();
  EXPECT_EQ(engine.messages(), 6u);
  EXPECT_EQ(engine.mailbox_spills(), 0u);
  EXPECT_EQ(delivered, 6);
  EXPECT_GT(engine.mailbox_state_bytes(), 0u);
}

// --- event key tie order, from first principles -----------------------------

// What the destination executed: a message (src, send index) or its own
// local event (src = kTieDst, index 0).
struct Delivery {
  SimTime time;
  std::uint32_t src;
  std::uint32_t index;
  bool operator==(const Delivery&) const = default;
};
void PrintTo(const Delivery& d, std::ostream* os) {
  *os << "{t=" << d.time << " src=" << d.src << " #" << d.index << "}";
}
constexpr std::uint32_t kTieDst = 3;

// Four sources on both sides of the destination post to shard 3 from one
// action each: times shared within and across sources, several sent in
// the opposite order to their times, and a local destination event,
// scheduled before the run, at a time some messages share. The expected
// order is derived here from what was posted — the key (time, origin,
// origin counter), where a source's sends take consecutive counters and
// the local event's origin is the destination — not from the engine.
TEST(ShardedSimulator, SameTimeEventsRunInOriginThenCounterOrder) {
  constexpr std::size_t kShards = 8;
  constexpr SimTime kSendAt = 500;
  constexpr SimTime kX = 700;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = 100;
  ShardedSimulator engine(sc);
  const std::vector<std::pair<std::uint32_t, std::vector<SimTime>>> sends = {
      {0, {kX + 30, kX + 10, kX + 20, kX + 10}},
      {1, {kX + 20, kX + 20, kX}},
      {5, {kX + 10, kX, kX + 30}},
      {7, {kX, kX + 30, kX + 10, kX + 10}},
  };
  std::vector<Delivery> got;
  engine.shard(kTieDst).schedule_at(kX + 10, [&got] {
    got.push_back(Delivery{kX + 10, kTieDst, 0});
  });
  for (const auto& [src, times] : sends) {
    engine.shard(src).schedule_at(kSendAt, [&, src = src, times = times] {
      for (std::uint32_t i = 0; i < times.size(); ++i) {
        const SimTime t = times[i];
        engine.post(src, kTieDst, t, [&engine, &got, t, src = src, i] {
          EXPECT_EQ(engine.shard(kTieDst).now(), t);
          got.push_back(Delivery{t, src, i});
        });
      }
    });
  }
  engine.run();

  std::vector<Delivery> want = {Delivery{kX + 10, kTieDst, 0}};
  for (const auto& [src, times] : sends) {
    for (std::uint32_t i = 0; i < times.size(); ++i) {
      want.push_back(Delivery{times[i], src, i});
    }
  }
  std::sort(want.begin(), want.end(),
            [](const Delivery& a, const Delivery& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.src != b.src) return a.src < b.src;
              return a.index < b.index;
            });
  EXPECT_EQ(got, want);
}

// --- post contract boundary and construction limits ------------------------

// A post at exactly now + lookahead is legal and lands when it was
// addressed (one tick sooner is PostInsideTheLookaheadWindowIsRejected).
TEST(ShardedSimulator, PostAtExactlyTheLookaheadLandsWhenAddressed) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 50;
  ShardedSimulator engine(sc);
  SimTime landed = 0;
  engine.shard(0).schedule_at(5, [&engine, &landed] {
    engine.post(0, 1, engine.shard(0).now() + 50,
                [&engine, &landed] { landed = engine.shard(1).now(); });
  });
  engine.run();
  EXPECT_EQ(engine.messages(), 1u);
  EXPECT_EQ(landed, 55u);
}

// Shard ids live in the key's 16-bit origin field.
TEST(ShardedSimulator, MoreShardsThanOriginIdsAreRejected) {
  ShardedConfig sc;
  sc.shards = (std::size_t{1} << Simulator::kOriginBits) + 1;
  EXPECT_THROW(ShardedSimulator{sc}, CheckError);
}

// --- echo cap: ping-pong back to the earliest shard -------------------------

// Shard 0 holds the earliest event with dense local work far beyond the
// echo time, shard 1 is idle and shard 2's only event is distant, so the
// runner-up bound leaves shard 0's run nearly unbounded. Shard 0 pings
// shard 1, which pongs straight back (or relays through shard 2 first)
// `hop` after each step. Without the post-time echo cap shard 0 runs its
// local work past the pong's time and the pong is scheduled in its past.
//
// Each run happens twice: sparse, and after dense background ticks on
// shard 0 have run through short run_until() segments, so the ping's run
// carries hundreds of events.
void ping_pong_echo_run(SimDuration hop, bool relay) {
  for (const bool dense : {false, true}) {
    SCOPED_TRACE(dense);
    ShardedConfig sc;
    sc.shards = 3;
    sc.lookahead = 100;
    ShardedSimulator engine(sc);
    // Scenario start: after the warm-up span in the dense variant.
    const SimTime t0 = dense ? 2000 : 0;
    if (dense) {
      add_ticks(engine.shard(0), 8, 1, t0 + 5000);
      // Shards 1 and 2 are idle, so each segment is one ~800-event run of
      // shard 0.
      for (SimTime b = 100; b <= t0; b += 100) engine.run_until(b);
    }
    for (SimTime t = t0 + 10; t <= t0 + 5000; t += 10) {
      engine.shard(0).schedule_at(t, [] {});
    }
    engine.shard(2).schedule_at(t0 + 1000000, [] {});  // distant, not idle
    SimTime pong_at = 0;
    const auto pong = [&engine, &pong_at, hop](std::size_t from) {
      engine.post(from, 0, engine.shard(from).now() + hop,
                  [&engine, &pong_at] { pong_at = engine.shard(0).now(); });
    };
    engine.shard(0).schedule_at(t0 + 10, [&engine, &pong, hop, relay] {
      engine.post(0, 1, engine.shard(0).now() + hop,
                  [&engine, &pong, hop, relay] {
                    if (!relay) return pong(1);
                    engine.post(1, 2, engine.shard(1).now() + hop,
                                [&pong] { pong(2); });
                  });
    });
    engine.run();
    EXPECT_EQ(pong_at, t0 + 10 + (relay ? 3 : 2) * hop);
  }
}

TEST(ShardedSimulator, EchoToTheEarliestShardAtTheLookahead) {
  ping_pong_echo_run(100, false);
}

TEST(ShardedSimulator, EchoToTheEarliestShardPastTheLookahead) {
  ping_pong_echo_run(170, false);
}

TEST(ShardedSimulator, RelayedEchoToTheEarliestShard) {
  ping_pong_echo_run(100, true);
}

// --- imbalanced topology: one hot shard, many cold burst shards -------------

// A global-window engine's worst case: shard 0 fires continuously (it
// holds the earliest event), while shards 1..N-1 wake only in short
// synchronized bursts once per period and sit idle in between. One global
// window `[floor, floor + lookahead)` would march the whole machine forward
// one lookahead at a time — (period / lookahead) steps per period — while
// the runner-up bound lets the hot shard cross an entire quiet gap in one
// run.
constexpr std::size_t kImbShards = 64;
constexpr SimTime kImbPeriod = 20000;
constexpr int kImbEpochs = 6;
constexpr SimDuration kImbLookahead = 200;

struct HotActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shards = 0;
  TraceHasher* hash = nullptr;
  SimTime stop_at = 0;
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(0);
    hash->mix(sim.now());
    if (sim.now() >= stop_at) return;
    if (rng.uniform_u64(256) == 0 && shards > 1) {
      const std::size_t to = 1 + rng.uniform_u64(shards - 1);
      ShardedSimulator* e = eng;
      eng->post(0, to, sim.now() + 200 + rng.uniform_u64(100),
                [e, to] { /* wake the cold shard mid-gap */
                          (void)e->shard(to).now(); });
    }
    sim.schedule_after(1 + rng.uniform_u64(13), [this] { fire(); });
  }
};

struct ColdActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  TraceHasher* hashes = nullptr;
  SimTime period = 0;
  std::uint64_t burst = 0;
  std::uint64_t burst_left = 0;
  int epochs_left = 0;
  SimTime next_burst = 0;
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(shard);
    hashes[shard].mix(sim.now());
    if (burst_left > 0) {
      --burst_left;
      sim.schedule_after(1 + rng.uniform_u64(5), [this] { fire(); });
      return;
    }
    // Burst over: hand one message to the next cold shard, then sleep
    // until the next period boundary.
    const std::size_t to = 1 + (shard % (shards - 1));
    TraceHasher* dest = &hashes[to];
    ShardedSimulator* e = eng;
    eng->post(shard, to, sim.now() + 200 + rng.uniform_u64(50),
              [e, to, dest] { dest->mix(e->shard(to).now()); });
    if (--epochs_left <= 0) return;
    next_burst += period;
    burst_left = burst;
    sim.schedule_at(next_burst, [this] { fire(); });
  }
};

struct ImbalancedResult {
  std::uint64_t hash = 0;
  std::uint64_t runs = 0;
};

ImbalancedResult imbalanced_run() {
  ShardedConfig sc;
  sc.shards = kImbShards;
  sc.lookahead = kImbLookahead;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(kImbShards);
  HotActor hot;
  hot.eng = &engine;
  hot.shards = kImbShards;
  hot.hash = &hashes[0];
  hot.stop_at = kImbPeriod * kImbEpochs;
  hot.rng = Rng(0x4077);
  engine.shard(0).schedule_at(1, [&hot] { hot.fire(); });
  std::vector<std::unique_ptr<ColdActor>> colds;
  for (std::size_t s = 1; s < kImbShards; ++s) {
    colds.push_back(std::make_unique<ColdActor>());
    ColdActor& c = *colds.back();
    c.eng = &engine;
    c.shard = s;
    c.shards = kImbShards;
    c.hashes = hashes.data();
    c.period = kImbPeriod;
    c.burst = 8;
    c.burst_left = 8;
    c.epochs_left = kImbEpochs;
    c.next_burst = static_cast<SimTime>(100 + s * 3);
    c.rng = Rng(0xC01D + s);
    engine.shard(s).schedule_at(c.next_burst, [&c] { c.fire(); });
  }
  engine.run();
  ImbalancedResult r;
  TraceHasher combined;
  for (const TraceHasher& h : hashes) combined.mix(h.h);
  combined.mix(engine.events_processed());
  combined.mix(engine.messages());
  combined.mix(engine.windows());
  r.hash = combined.h;
  r.runs = engine.windows();
  return r;
}

// Re-pinned when events were keyed by (time, origin, counter) (ROADMAP
// item 9: canonical event key); the hash folds in the run count.
TEST(ShardedSimulator, ImbalancedTopologyHashIsPinned) {
  const ImbalancedResult r = imbalanced_run();
  EXPECT_EQ(r.hash, 11924394204750591335ull);
  EXPECT_EQ(r.runs, 892u);
}

TEST(ShardedSimulator, TheHotShardCrossesQuietGapsInOneRun) {
  const ImbalancedResult r = imbalanced_run();
  // Stepping one lookahead at a time would take the hot shard alone
  // kImbEpochs * kImbPeriod / kImbLookahead runs, and every cold burst
  // takes at least one run of its own. The runner-up bound lets the hot
  // shard cross each quiet gap in one run, so the total stays below that.
  const std::uint64_t stepped_runs =
      static_cast<std::uint64_t>(kImbEpochs) * kImbPeriod / kImbLookahead;
  EXPECT_LT(r.runs, stepped_runs + (kImbShards - 1) * kImbEpochs);
}

// --- lookahead queries ------------------------------------------------------

TEST(Network, MinCrossLatencyOnATwoLevelTree) {
  NetworkConfig nc;
  LinkParams l0;
  l0.hop_latency = nanoseconds(20);
  LinkParams l1;
  l1.hop_latency = nanoseconds(150);
  nc.level_params = {{0, l0}, {1, l1}};
  Network net(make_tree({2, 2}), nc);
  // Same-switch pair: up + down over two level-0 links.
  EXPECT_EQ(net.min_cross_latency(0), nanoseconds(40));
  // Crossing the level-1 tier costs two level-0 and two level-1 hops.
  EXPECT_EQ(net.min_cross_latency(1), nanoseconds(340));
  // Nothing crosses a level that does not exist.
  EXPECT_EQ(net.min_cross_latency(2), 0);
  EXPECT_EQ(net.route_latency(0, 1), nanoseconds(40));
  EXPECT_EQ(net.route_latency(0, 2), nanoseconds(340));
}

TEST(PgasSystem, ShardLookaheadMatchesInterNodeTier) {
  PgasConfig pc;
  pc.nodes = 4;
  pc.workers_per_node = 2;
  PgasSystem pgas(pc);
  const SimDuration la = pgas.shard_lookahead();
  EXPECT_GT(la, 0);
  // A cross-node route pays at least one l1 hop on top of intra-node hops.
  EXPECT_GE(la, pc.l1_link.hop_latency);
  // And it is a true lower bound on the network's cross-tier latency.
  EXPECT_EQ(la, pgas.network().min_cross_latency(1));
}

TEST(PgasSystem, SingleNodeMachineHasNoCrossTraffic) {
  PgasConfig pc;
  pc.nodes = 1;
  pc.workers_per_node = 4;
  PgasSystem pgas(pc);
  EXPECT_EQ(pgas.shard_lookahead(), 0);
}

// --- mixed UNIMEM+UNILOGIC workload on ShardedRuntime -----------------------

// Per-node epoch generator: every epoch it issues node-local UNIMEM
// traffic, submits local tasks (software + fabric via the UNILOGIC pool),
// and forwards one task to another node through the engine.
struct NodeGenerator {
  ShardedRuntime* rt = nullptr;
  std::size_t node = 0;
  std::size_t nodes = 0;
  std::size_t workers = 0;
  int epochs_left = 0;
  TaskId next_id = 0;
  Rng rng{0};
  GlobalAddress buf{};
  TraceHasher* hash = nullptr;
  const std::vector<KernelIR>* kernels = nullptr;

  Task make_task(SimTime release) {
    Task t;
    t.id = next_id++;
    const KernelIR& k = (*kernels)[rng.uniform_u64(kernels->size())];
    t.kernel = k.id;
    t.items = 2000 + rng.uniform_u64(8000);
    t.features.items = static_cast<double>(t.items);
    t.features.bytes =
        static_cast<double>(t.items * (k.bytes_in + k.bytes_out));
    t.home = WorkerCoord{0, static_cast<WorkerId>(rng.uniform_u64(workers))};
    t.release = release;
    return t;
  }

  void fire() {
    Simulator& sim = rt->shard(node);
    PgasSystem& pgas = rt->machine(node).pgas();
    // Node-local UNIMEM traffic (stays inside the shard's domain).
    const auto who =
        WorkerCoord{0, static_cast<WorkerId>(rng.uniform_u64(workers))};
    const auto ld = pgas.load(who, buf, 256, sim.now());
    const auto st = pgas.store(who, buf, 128, ld.finish);
    hash->mix(ld.finish);
    hash->mix(st.finish);
    // Local work for this node's scheduler / UNILOGIC pool.
    for (int i = 0; i < 2; ++i) rt->submit(node, make_task(sim.now()));
    // One cross-node forward through the engine.
    if (nodes > 1) {
      const std::size_t to = (node + 1 + rng.uniform_u64(nodes - 1)) % nodes;
      rt->post_task(node, to, make_task(0));
    }
    if (--epochs_left > 0) {
      sim.schedule_after(microseconds(30), [this] { fire(); });
    }
  }
};

std::uint64_t sharded_runtime_hash(ShardedRuntime::Stats* stats_out,
                                   std::size_t threads = 1) {
  ShardedRuntimeConfig cfg;
  cfg.nodes = 8;
  cfg.threads = threads;
  cfg.workers_per_node = 2;
  cfg.runtime.placement = PlacementPolicy::kModelBased;
  cfg.runtime.share_fabric = true;
  cfg.runtime.distribution = DistributionPolicy::kLazyLocal;
  ShardedRuntime rt(cfg);
  const std::vector<KernelIR> kernels = {make_stencil5_kernel(),
                                         make_spmv_kernel()};
  for (const auto& k : kernels) rt.register_kernel(k, emit_variants(k, 2));

  std::vector<TraceHasher> hashes(cfg.nodes);
  std::vector<std::unique_ptr<NodeGenerator>> gens;
  for (std::size_t node = 0; node < cfg.nodes; ++node) {
    gens.push_back(std::make_unique<NodeGenerator>());
    NodeGenerator& g = *gens.back();
    g.rt = &rt;
    g.node = node;
    g.nodes = cfg.nodes;
    g.workers = cfg.workers_per_node;
    g.epochs_left = 6;
    g.next_id = 1 + node * 1000000;
    g.rng = Rng(0x5EED + node);
    g.buf = rt.machine(node).pgas().alloc(0, 0, kibibytes(64));
    g.hash = &hashes[node];
    g.kernels = &kernels;
    rt.shard(node).schedule_at(static_cast<SimTime>(1 + node),
                               [&g] { g.fire(); });
    // Background ticks, 32 per lookahead per node,
    // through the generators' six epochs.
    add_ticks(rt.shard(node), 2, 1, microseconds(180),
              std::max<SimDuration>(rt.lookahead() / 16, 1));
  }
  rt.run();

  TraceHasher combined;
  for (std::size_t node = 0; node < cfg.nodes; ++node) {
    combined.mix(hashes[node].h);
    for (const TaskResult& r : rt.runtime(node).results()) {
      combined.mix(r.id);
      combined.mix(r.started);
      combined.mix(r.finished);
      combined.mix(static_cast<std::uint64_t>(r.device));
      combined.mix(r.executed_on);
      combined.mix_double(r.energy);
    }
    combined.mix_double(rt.machine(node).total_energy());
  }
  const ShardedRuntime::Stats s = rt.stats();
  combined.mix(s.makespan);
  combined.mix(s.events);
  combined.mix(s.windows);
  combined.mix(s.cross_posts);
  *stats_out = s;
  return combined.h;
}

// Re-pinned when events were keyed by (time, origin, counter) (ROADMAP
// item 9: canonical event key); the hash folds in the run count.
constexpr std::uint64_t kRuntimeHash = 13317904375298947061ull;
constexpr std::uint64_t kRuntimeRuns = 4312u;

TEST(ShardedRuntime, MixedUnimemUnilogicWorkloadHashIsPinned) {
  ShardedRuntime::Stats s{};
  EXPECT_EQ(sharded_runtime_hash(&s), kRuntimeHash);
  // The workload really was mixed and really did cross node boundaries:
  // 8 nodes x 6 epochs x (2 local + 1 forwarded) tasks.
  EXPECT_EQ(s.tasks, 8u * 6u * 3u);
  EXPECT_EQ(s.cross_posts, 48u);
  EXPECT_EQ(s.windows, kRuntimeRuns);
  EXPECT_GT(s.makespan, 0u);
}

// --- run_until(): the epoch-pause primitive ---------------------------------

TEST(ShardedSimulator, RunUntilPausesAtTheExclusiveBoundary) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 5;
  ShardedSimulator engine(sc);
  std::vector<int> fired(2, 0);
  for (std::size_t s = 0; s < 2; ++s) {
    for (SimTime t = 10; t <= 100; t += 10) {
      engine.shard(s).schedule_at(t, [&fired, s] { ++fired[s]; });
    }
  }
  // Exclusive bound: events at 10..40 run, the event at exactly 50 stays
  // pending — and there is still work, so the engine reports "not drained".
  EXPECT_FALSE(engine.run_until(50));
  EXPECT_EQ(fired[0], 4);
  EXPECT_EQ(fired[1], 4);
  // Re-pausing at the same bound is a no-op, not a re-execution.
  EXPECT_FALSE(engine.run_until(50));
  EXPECT_EQ(fired[0], 4);
  // A bound past the last event drains fully and says so.
  EXPECT_TRUE(engine.run_until(1000));
  EXPECT_EQ(fired[0], 10);
  EXPECT_EQ(fired[1], 10);
  EXPECT_EQ(engine.events_processed(), 20u);
}

TEST(ShardedSimulator, ControllerMayScheduleAtThePauseOnAnyShard) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 5;
  ShardedSimulator engine(sc);
  std::vector<std::uint64_t> count(4, 0);
  for (std::size_t s = 0; s < 4; ++s) {
    engine.shard(s).schedule_at(3, [&count, s] { ++count[s]; });
  }
  // A far-out no-op keeps work pending through every pause we want to
  // observe (run_until reports drained as soon as all queues are empty).
  engine.shard(0).schedule_at(65, [] {});
  SimTime bound = 0;
  std::size_t pauses = 0;
  // Controller loop: at every pause, inject one event at the boundary on
  // a rotating shard (legal: nothing is running, and the boundary is at
  // or after every shard's clock). The injected event lands in the *next*
  // segment — the bound is exclusive.
  while (!engine.run_until(bound += 10)) {
    const std::size_t s = pauses % 4;
    engine.shard(s).schedule_at(bound, [&count, s] { ++count[s]; });
    ++pauses;
  }
  EXPECT_EQ(pauses, 6u);
  EXPECT_EQ(std::accumulate(count.begin(), count.end(), 0ull), 10ull);
}

// One segmented run with a mid-run controller: chains of self-scheduling
// events with deterministic cross-posts, paused every 17 ticks; at each
// pause the controller folds the (deterministic) per-shard counters into
// the hash and injects boundary events for the first few epochs, so the
// final hash pins run_until's pause as a consistent cut. `background`
// chains of ticks per shard add dense local work.
std::uint64_t segmented_run_hash(std::size_t background) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 7;
  ShardedSimulator engine(sc);
  std::vector<TraceHasher> hashes(4);
  for (std::size_t s = 0; s < 4 && background > 0; ++s) {
    add_ticks(engine.shard(s), background, 1, 400);
  }
  struct Chain {
    ShardedSimulator* eng;
    std::size_t shard;
    TraceHasher* hashes;
    int remaining;
    Rng rng{0};
    void fire() {
      Simulator& sim = eng->shard(shard);
      hashes[shard].mix(sim.now());
      if (remaining-- <= 0) return;
      if (rng.uniform_u64(3) == 0) {
        const std::size_t to = (shard + 1) % 4;
        TraceHasher* dest = &hashes[to];
        ShardedSimulator* e = eng;
        eng->post(shard, to, sim.now() + eng->lookahead() + rng.uniform_u64(11),
                  [e, to, dest] { dest->mix(e->shard(to).now()); });
      }
      sim.schedule_after(1 + rng.uniform_u64(13), [this] { fire(); });
    }
  };
  std::vector<std::unique_ptr<Chain>> chains;
  for (std::size_t s = 0; s < 4; ++s) {
    chains.push_back(std::make_unique<Chain>());
    Chain& c = *chains.back();
    c.eng = &engine;
    c.shard = s;
    c.hashes = hashes.data();
    c.remaining = 40;
    c.rng = Rng(0xC0DE + s);
    engine.shard(s).schedule_at(1 + static_cast<SimTime>(s), [&c] { c.fire(); });
  }
  TraceHasher controller;
  SimTime bound = 0;
  std::size_t epoch = 0;
  while (!engine.run_until(bound += 17)) {
    ++epoch;
    // Mid-run shard state is stable at the pause: fold it in.
    for (std::size_t s = 0; s < 4; ++s) {
      controller.mix(engine.shard(s).now());
      controller.mix(hashes[s].h);
    }
    if (epoch <= 4) {
      const std::size_t s = epoch % 4;
      engine.shard(s).schedule_at(bound + 1, [&hashes, &engine, s] {
        hashes[s].mix(engine.shard(s).now());
      });
    }
  }
  for (std::size_t s = 0; s < 4; ++s) controller.mix(hashes[s].h);
  controller.mix(engine.events_processed());
  return controller.h;
}

// Captured before the engine's host threads were deleted; every thread
// count the engine offered gave these values.
TEST(ShardedSimulator, SegmentedRunsArePinned) {
  EXPECT_EQ(segmented_run_hash(0), 4235869954645008129ull);
  EXPECT_EQ(segmented_run_hash(8), 18415974269980460998ull);
}

// --- the calling thread runs every action --------------------------------

// One event a tick on `shard` until before `stop`, each noting its thread.
struct LoggedTick {
  Simulator* sim;
  std::size_t shard;
  std::vector<std::set<std::thread::id>>* ids;
  SimTime stop;
  void operator()() const {
    (*ids)[shard].insert(std::this_thread::get_id());
    if (sim->now() + 1 < stop) sim->schedule_after(1, *this);
  }
};

ShardedConfig four_shards(std::size_t threads) {
  ShardedConfig sc;
  sc.shards = 4;
  sc.lookahead = 10;
  sc.threads = threads;
  return sc;
}

// Sparse runs (the kv-style regime) and dense ones alike run every action
// on the caller's thread, whatever `threads` says: the engine starts no
// thread.
TEST(ShardedSimulator, EveryActionRunsOnTheCallersThread) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const bool dense : {false, true}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, dense "
                                      << dense);
      ShardedSimulator engine(four_shards(threads));
      EXPECT_EQ(engine.threads_used(), 1u);
      std::vector<std::set<std::thread::id>> ids(4);
      std::uint64_t background = 0;
      for (std::size_t s = 0; s < 4; ++s) {
        if (dense) background += add_ticks(engine.shard(s), 4, 1, 600);
        engine.shard(s).schedule_at(
            1, LoggedTick{&engine.shard(s), s, &ids, 600});
      }
      SimTime bound = 0;
      while (!engine.run_until(bound += 50)) {
      }
      EXPECT_EQ(engine.events_processed(), 4u * 599u + background);
      EXPECT_GT(engine.windows(), 0u);
      for (const auto& set : ids) {
        ASSERT_EQ(set.size(), 1u);
        EXPECT_EQ(*set.begin(), std::this_thread::get_id());
      }
    }
  }
}

TEST(ShardedSimulator, ActionExceptionPropagatesFromRun) {
  ShardedSimulator engine(four_shards(1));
  for (std::size_t s = 0; s < 4; ++s) engine.shard(s).schedule_at(5, [] {});
  engine.shard(3).schedule_at(7, [] {
    throw std::runtime_error("shard 3 exploded");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(ShardedSimulator, TwoSameTimeThrowsSurfaceLowestShardFirst) {
  // Shards 1 and 3 both throw at time 7. The executor picks the lower
  // shard id on a tie, so shard 1's exception surfaces first; shard 3's
  // throwing event is still pending and throws on the next run.
  ShardedSimulator engine(four_shards(1));
  for (std::size_t s = 0; s < 4; ++s) engine.shard(s).schedule_at(5, [] {});
  engine.shard(3).schedule_at(7, [] { throw std::runtime_error("shard 3"); });
  engine.shard(1).schedule_at(7, [] { throw std::runtime_error("shard 1"); });
  for (const char* expected : {"shard 1", "shard 3"}) {
    try {
      engine.run();
      ADD_FAILURE() << "run() returned; expected " << expected;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), expected);
    }
  }
  engine.run();  // nothing left to throw: drains
  EXPECT_EQ(engine.events_processed(), 6u);
}

TEST(ShardedSimulator, ActionExceptionPropagatesFromRunUntil) {
  ShardedSimulator engine(four_shards(1));
  int late = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    engine.shard(s).schedule_at(60, [&late] { ++late; });
  }
  engine.shard(0).schedule_at(7, [] { throw std::runtime_error("shard 0"); });
  EXPECT_THROW(engine.run_until(50), std::runtime_error);
  EXPECT_EQ(late, 0);
  // The thrown exception is spent: the segments resume at their own bounds.
  EXPECT_FALSE(engine.run_until(50));
  EXPECT_EQ(late, 0);
  EXPECT_TRUE(engine.run_until(100));
  EXPECT_EQ(late, 4);
}

TEST(ShardedSimulator, ThrowingActionReleasesItsCaptureInRunUntil) {
  ShardedSimulator engine(four_shards(1));
  const auto token = std::make_shared<int>(0);
  engine.shard(2).schedule_at(7, [token] { throw std::runtime_error("x"); });
  EXPECT_THROW(engine.run_until(50), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(engine.run_until(50));
}

// A message posted before its action throws stays in the destination's
// inbox and runs on the next run().
TEST(ShardedSimulator, MessagesPostedBeforeAThrowAreDeliveredOnTheNextRun) {
  ShardedConfig sc;
  sc.shards = 2;
  sc.lookahead = 10;
  ShardedSimulator engine(sc);
  SimTime landed = 0;
  engine.shard(0).schedule_at(5, [&engine, &landed] {
    engine.post(0, 1, 40,
                [&engine, &landed] { landed = engine.shard(1).now(); });
    throw std::runtime_error("after the post");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_EQ(landed, 0u);
  EXPECT_EQ(engine.messages(), 1u);
  engine.run();
  EXPECT_EQ(landed, 40u);
}

// An exception that carries a reference, so the test can see it released.
struct TokenError : std::runtime_error {
  explicit TokenError(std::shared_ptr<int> t)
      : std::runtime_error("token"), token(std::move(t)) {}
  std::shared_ptr<int> token;
};

// Destroying an engine mid-run, with events still queued on every shard
// and a second exception not yet rethrown, releases all of them.
TEST(ShardedSimulator, DestructorReleasesPendingWorkAfterAThrow) {
  const auto token = std::make_shared<int>(0);
  {
    ShardedSimulator engine(four_shards(1));
    for (std::size_t s = 0; s < 4; ++s) {
      engine.shard(s).schedule_at(1000, [token] { (void)*token; });
    }
    engine.shard(1).schedule_at(7, [] { throw std::runtime_error("shard 1"); });
    engine.shard(3).schedule_at(7, [token] { throw TokenError(token); });
    EXPECT_THROW(engine.run(), std::runtime_error);
    EXPECT_GT(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ShardedSimulator, RunOnAnEmptyEngineDoesNothing) {
  ShardedSimulator engine(four_shards(1));
  engine.run();
  EXPECT_TRUE(engine.run_until(100));
  EXPECT_EQ(engine.windows(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.shard_wall_time_ns(), 0u);
}

// With no pending peer nothing bounds a shard's run, so a lone shard
// drains in one run however much work it holds.
TEST(ShardedSimulator, OneShardDrainsInOneRun) {
  ShardedConfig sc;
  sc.shards = 1;
  sc.lookahead = 10;
  ShardedSimulator engine(sc);
  const std::uint64_t events = add_ticks(engine.shard(0), 3, 1, 500);
  engine.run();
  EXPECT_EQ(engine.windows(), 1u);
  EXPECT_EQ(engine.shard_windows(), 1u);
  EXPECT_EQ(engine.stalled_shard_windows(), 0u);
  EXPECT_EQ(engine.events_processed(), events);
  EXPECT_EQ(engine.now(), 499u);
}

// Idle shards cost nothing: they never run, and the one busy shard is
// bounded by no peer.
TEST(ShardedSimulator, IdleShardsAreNeitherRunNorStalled) {
  ShardedSimulator engine(four_shards(1));
  const std::uint64_t events = add_ticks(engine.shard(2), 2, 1, 300);
  engine.run();
  EXPECT_EQ(engine.windows(), 1u);
  EXPECT_EQ(engine.shard_windows(), 1u);
  EXPECT_EQ(engine.stalled_shard_windows(), 0u);
  EXPECT_EQ(engine.events_processed(), events);
  EXPECT_EQ(engine.now(), 299u);
  EXPECT_EQ(engine.shard(0).now(), 0u);
}

// --- documented no-ops ------------------------------------------------------

// The end-to-end benchmark still sets `threads` for its 4-thread run. Any
// value leaves the engine on the calling thread with the pinned result.
TEST(ShardedSimulator, ThreadsFieldIsANoOp) {
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE(threads);
    ShardedSimulator engine(four_shards(threads));
    EXPECT_EQ(engine.threads_used(), 1u);
    EXPECT_EQ(engine.steals(), 0u);
    EXPECT_EQ(mesh_workload_hash(8, 1024, 400, threads), kMeshHash);
  }
}

TEST(ShardedRuntime, ThreadsFieldIsANoOp) {
  ShardedRuntime::Stats s{};
  EXPECT_EQ(sharded_runtime_hash(&s, 4), kRuntimeHash);
  EXPECT_EQ(s.windows, kRuntimeRuns);
  EXPECT_EQ(s.steals, 0u);
}

TEST(ShardedRuntime, ForwardedTasksPayTheInterNodeLatency) {
  ShardedRuntimeConfig cfg;
  cfg.nodes = 4;
  cfg.workers_per_node = 2;
  ShardedRuntime rt(cfg);
  EXPECT_GT(rt.lookahead(), 0);
  for (std::size_t from = 0; from < 4; ++from) {
    for (std::size_t to = 0; to < 4; ++to) {
      if (from == to) continue;
      EXPECT_GE(rt.inter_node_latency(from, to), rt.lookahead());
    }
  }
}

}  // namespace
}  // namespace ecoscale
