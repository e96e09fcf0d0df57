// Allocation accounting for the simulation hot path.
//
// This binary overrides the global allocation functions with counting
// versions and asserts the kernel's core promise: once warm, scheduling and
// retiring events performs no heap allocation — captures at or under
// InlineAction::kInlineBytes live inline in recycled slab slots, and larger
// captures are served by the recycled block pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "interconnect/network.h"
#include "interconnect/topology.h"
#include "obs/trace.h"
#include "sim/inline_action.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "unimem/pgas.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ecoscale {
namespace {

// A capture that exactly fills the inline buffer when combined with
// nothing else: 64 bytes of payload.
struct InlinePayload {
  std::uint64_t w[8];
};
static_assert(sizeof(InlinePayload) == InlineAction::kInlineBytes);

// Forces the spill path: larger than the inline buffer, smaller than a
// pool block.
struct SpillPayload {
  std::uint64_t w[16];
};
static_assert(sizeof(SpillPayload) > InlineAction::kInlineBytes);

template <typename Payload>
void pump(Simulator& sim, std::uint64_t events, std::uint64_t* sink) {
  struct Actor {
    Simulator* sim;
    std::uint64_t* budget;
    std::uint64_t* sink;
    void fire() {
      if (*budget == 0) return;
      --*budget;
      Actor* self = this;
      Payload p{};
      p.w[0] = *budget;
      sim->schedule_after(1 + (*budget % 7), [self, p] {
        *self->sink += p.w[0];
        self->fire();
      });
    }
  };
  std::uint64_t budget = events;
  std::array<Actor, 8> actors;
  actors.fill(Actor{&sim, &budget, sink});
  for (auto& a : actors) a.fire();
  sim.run();
}

TEST(SimulatorAllocation, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  // Warm up: grow the heap/slab vectors and fault in everything once.
  pump<InlinePayload>(sim, 20000, &sink);
  const std::uint64_t before = g_allocations.load();
  pump<InlinePayload>(sim, 100000, &sink);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after, before)
      << "scheduling inline-capture events allocated on the hot path";
}

TEST(SimulatorAllocation, SpilledCapturesRecycleThroughPool) {
  Simulator sim;
  std::uint64_t sink = 0;
  pump<SpillPayload>(sim, 20000, &sink);  // warm pool + vectors
  const std::uint64_t before = g_allocations.load();
  const auto pool_before = detail::ActionBlockPool::stats();
  pump<SpillPayload>(sim, 100000, &sink);
  const std::uint64_t after = g_allocations.load();
  const auto pool_after = detail::ActionBlockPool::stats();
  EXPECT_EQ(after, before)
      << "spilled captures should be served by the recycled block pool";
  EXPECT_EQ(pool_after.pool_misses, pool_before.pool_misses);
  EXPECT_GT(pool_after.pool_hits, pool_before.pool_hits);
}

// Drive a mixed local/remote/atomic PGAS access pattern for `ops`
// operations, advancing time and releasing the retired past at epoch
// boundaries (the contract long-running workloads follow).
void pgas_pump(PgasSystem& sys, std::span<const GlobalAddress> local,
               std::span<const GlobalAddress> remote, std::uint64_t ops,
               SimTime& now) {
  constexpr std::uint64_t kEpoch = 4096;
  const WorkerCoord who{0, 0};
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += nanoseconds(100);
    const GlobalAddress addr = (i & 1) ? remote[i % remote.size()]
                                       : local[i % local.size()];
    if ((i & 7) == 7) {
      sys.atomic_rmw(who, addr, AtomicOp::kFetchAdd, 1, now);
    } else if (i & 2) {
      sys.store(who, addr, 64, now);
    } else {
      sys.load(who, addr, 64, now);
    }
    if ((i & (kEpoch - 1)) == 0) sys.release(now);
  }
}

TEST(SimulatorAllocation, PgasAccessLoopIsAllocationFreeOnceWarm) {
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  PgasSystem sys(cfg);
  std::vector<GlobalAddress> local, remote;
  for (std::size_t i = 0; i < 16; ++i) {
    local.push_back(sys.alloc(0, i % 2, 4096) + (i * 8) % 4096);
    remote.push_back(sys.alloc(1, i % 2, 4096) + (i * 8) % 4096);
  }
  SimTime now = 0;
  // Warm up: resolve routes, grow calendars/caches/energy tables, fault in
  // the backing pages the atomics touch.
  pgas_pump(sys, local, remote, 3 * 4096, now);
  const std::uint64_t before = g_allocations.load();
  pgas_pump(sys, local, remote, 10 * 4096, now);
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state PGAS loads/stores/atomics allocated on the hot path";
}

TEST(SimulatorAllocation, NetworkSendLoopIsAllocationFreeOnceWarm) {
  Network net(make_tree({4, 4}), NetworkConfig{});
  const std::size_t endpoints = 16;
  const auto pump = [&](std::uint64_t ops, SimTime& now) {
    constexpr std::uint64_t kEpoch = 4096;
    for (std::uint64_t i = 0; i < ops; ++i) {
      now += nanoseconds(100);
      const std::size_t src = i % endpoints;
      const std::size_t dst = (i * 7 + 3) % endpoints;
      Packet p{PacketType::kWrite, WorkerCoord{0, 0}, WorkerCoord{0, 0}, 64};
      net.send(src, dst, p, now);
      if ((i & (kEpoch - 1)) == 0) net.release(now);
    }
  };
  SimTime now = 0;
  pump(3 * 4096, now);  // warm: all 16x16 routes resolved, calendars sized
  const std::uint64_t before = g_allocations.load();
  pump(10 * 4096, now);
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state Network::send allocated on the hot path";
}

#if !defined(ECO_TRACE_DISABLED)
TEST(SimulatorAllocation, TracedPgasAndNetworkLoopsStayAllocationFree) {
  // The tracing promise: with a session armed, the instrumented hot paths
  // still allocate nothing once warm — an emit is one POD store into the
  // preallocated per-thread ring, and ring wrap-around evicts in place.
  // The ring is deliberately smaller than the event volume so the test
  // covers the wrap path too.
  obs::TraceOptions topts;
  topts.ring_capacity = 1u << 15;
  topts.counter_sample_every = 16;
  obs::TraceSession::instance().start(topts);

  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  PgasSystem sys(cfg);
  std::vector<GlobalAddress> local, remote;
  for (std::size_t i = 0; i < 16; ++i) {
    local.push_back(sys.alloc(0, i % 2, 4096) + (i * 8) % 4096);
    remote.push_back(sys.alloc(1, i % 2, 4096) + (i * 8) % 4096);
  }
  Network net(make_tree({4, 4}), NetworkConfig{});
  const auto net_pump = [&](std::uint64_t ops, SimTime& now) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      now += nanoseconds(100);
      Packet p{PacketType::kWrite, WorkerCoord{0, 0}, WorkerCoord{0, 0}, 64};
      net.send(i % 16, (i * 7 + 3) % 16, p, now);
      if ((i & 4095) == 0) net.release(now);
    }
  };

  // Warm up: routes, calendars, and this thread's trace ring registration
  // (the one allocating step).
  SimTime now = 0;
  pgas_pump(sys, local, remote, 3 * 4096, now);
  net_pump(3 * 4096, now);
  ASSERT_GT(obs::TraceSession::instance().events_recorded(), 0u)
      << "instrumented paths emitted nothing; the test is not tracing";

  const std::uint64_t before = g_allocations.load();
  pgas_pump(sys, local, remote, 10 * 4096, now);
  net_pump(10 * 4096, now);
  EXPECT_EQ(g_allocations.load(), before)
      << "tracing-enabled steady state allocated on the hot path";
  EXPECT_GT(obs::TraceSession::instance().events_dropped(), 0u)
      << "ring never wrapped; shrink the ring so eviction is exercised";
  obs::TraceSession::instance().stop();
}
#endif  // !ECO_TRACE_DISABLED

// --- sharded engine ----------------------------------------------------------

// Cross-posting actor for the sharded engine: self-reschedules on its own
// shard and sends every fourth fire to its ring neighbor. All captures fit
// InlineAction's inline buffer, the outbox is sized so nothing spills, and
// the merge reads the outbox in place with no scratch of its own — so once
// warm, a round (plan, execute, insert, fold) must not allocate at all.
struct ShardPumpActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::uint64_t left = 0;
  std::uint64_t* sinks = nullptr;  // one slot per shard

  void fire() {
    Simulator& sim = eng->shard(shard);
    sinks[shard] += sim.now();
    if (left == 0) return;
    --left;
    if ((left & 3) == 0 && shards > 1) {
      const std::size_t to = (shard + 1) % shards;
      std::uint64_t* s = &sinks[to];
      ShardedSimulator* e = eng;
      eng->post(shard, to, sim.now() + 200 + (left % 64),
                [e, to, s] { *s += e->shard(to).now(); });
    }
    sim.schedule_after(50 + (left % 50), [this] { fire(); });
  }
};

// The tournament tree is sized at construction, the inboxes are reserved
// on their first message and admitted in place, so once the engine has
// run, a second run of many more shard runs must not allocate at all.
// `per_shard` actors run on each of 8 shards. `threads = 4` is ignored:
// the engine runs on the caller either way.
void expect_sharded_runs_allocation_free(std::size_t per_shard) {
  constexpr std::size_t kShards = 8;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = 50;
  sc.threads = 4;
  ShardedSimulator engine(sc);
  std::array<std::uint64_t, kShards> sinks{};
  std::vector<ShardPumpActor> actors(kShards * per_shard);
  const auto start = [&](std::uint64_t fires_per_actor) {
    for (std::size_t i = 0; i < actors.size(); ++i) {
      const std::size_t s = i % kShards;
      actors[i] = ShardPumpActor{&engine, s, kShards, fires_per_actor,
                                 sinks.data()};
      ShardPumpActor* a = &actors[i];
      const SimTime at = engine.shard(s).now() + 1 + i;
      engine.shard(s).schedule_at(at, [a] { a->fire(); });
    }
  };
  // Queue storage is the kernel's own growth with the peak in flight;
  // size it so that only the engine's per-round bookkeeping is measured.
  for (std::size_t s = 0; s < kShards; ++s) {
    engine.shard(s).reserve_events(64 * per_shard);
  }
  start(200);
  engine.run();  // warm: TLS, the action pool, the first run's reserves
  const std::uint64_t warm_runs = engine.windows();
  const std::size_t warm_inbox_bytes = engine.mailbox_state_bytes();
  start(2000);
  const std::uint64_t before = g_allocations.load();
  engine.run();
  EXPECT_EQ(g_allocations.load(), before)
      << "a sharded run allocated in steady state";
  // Ten times the fires: the shard runs scale with the work.
  EXPECT_GT(engine.windows() - warm_runs, 5 * warm_runs);
  EXPECT_EQ(engine.mailbox_state_bytes(), warm_inbox_bytes)
      << "an inbox outgrew its reservation; growth allocates and voids the "
         "comparison";
  EXPECT_GT(engine.messages(), 0u);
}

// One actor per shard: the kv-style regime, a few events a shard run.
TEST(SimulatorAllocation, SparseShardedRunsAreAllocationFreeOnceWarm) {
  expect_sharded_runs_allocation_free(1);
}

// Eight actors per shard: the mesh regime.
TEST(SimulatorAllocation, DenseShardedRunsAreAllocationFreeOnceWarm) {
  expect_sharded_runs_allocation_free(8);
}

TEST(SimulatorAllocation, ColdStartAllocatesOnlyStorageGrowth) {
  // Sanity: the warm-up itself does allocate (vector growth, pool fill) —
  // this guards against the counters being dead.
  const std::uint64_t before = g_allocations.load();
  Simulator sim;
  std::uint64_t sink = 0;
  pump<InlinePayload>(sim, 1000, &sink);
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace ecoscale
