// Differential test of the sharded engine (sim/parallel.h) against an
// independent oracle.
//
// The oracle is one global binary heap of events keyed by (time, origin
// shard, origin counter) and popped in key order: the order the engine
// promises every shard. It shares no code with the engine or with the
// Simulator kernel. A seeded fuzzer draws cases: actor graphs over up to
// 40 shards, local schedules and cross-shard posts on a coarse time grid
// (so same-time events from different origins are common and posts often
// land at exactly the lookahead), run_until() segments with a controller
// that schedules at every pause, and actions that throw. Each case runs
// once on the engine and once on the oracle, and every shard's sequence of
// retired events must match.
//
// ECO_ENGINE_FUZZ_CASES sets the number of cases per regime (default 150).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "sim/parallel.h"

namespace ecoscale {
namespace {

constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();
/// Every time in a case is a multiple of this, so ties are common.
constexpr SimDuration kGrid = 5;

struct FuzzThrow : std::runtime_error {
  FuzzThrow() : std::runtime_error("fuzz throw") {}
};

/// One retired event as its shard saw it.
struct Retired {
  SimTime time = 0;
  std::uint64_t tag = 0;
  bool operator==(const Retired&) const = default;
};
void PrintTo(const Retired& r, std::ostream* os) {
  *os << "{t=" << r.time << " tag=" << r.tag << "}";
}

// --- the case --------------------------------------------------------------

/// Knobs for one family of cases.
struct Regime {
  std::size_t max_shards = 9;
  std::size_t max_actors_per_shard = 4;
  int max_fires = 40;
  int max_post_pct = 100;
  int max_throw_pct = 0;
  int max_segments = 0;
  /// Post delay past the lookahead, in grid steps: [0, post_jitter).
  std::uint64_t post_jitter = 3;
};

struct Actor {
  std::size_t shard = 0;
  std::vector<std::uint32_t> peers;
  int fires = 0;
  int post_pct = 0;
  int throw_pct = 0;
  std::uint64_t seed = 0;
};

struct Case {
  std::size_t shards = 1;
  SimDuration lookahead = kGrid;
  std::uint64_t post_jitter = 1;
  std::vector<Actor> actors;
  std::vector<SimTime> starts;  // one first event per actor
  std::vector<SimTime> bounds;  // run_until() pauses, ascending
  std::uint64_t controller_seed = 0;
};

Case draw_case(const Regime& g, std::uint64_t seed) {
  Rng rng(seed);
  Case c;
  c.shards = 1 + rng.uniform_u64(g.max_shards);
  c.lookahead = kGrid * (1 + rng.uniform_u64(4));
  c.post_jitter = g.post_jitter;
  const std::size_t n =
      c.shards * (1 + rng.uniform_u64(g.max_actors_per_shard));
  for (std::size_t i = 0; i < n; ++i) {
    Actor a;
    a.shard = i < c.shards ? i : rng.uniform_u64(c.shards);
    const std::size_t peers = 1 + rng.uniform_u64(3);
    for (std::size_t p = 0; p < peers; ++p) {
      a.peers.push_back(static_cast<std::uint32_t>(rng.uniform_u64(n)));
    }
    a.fires = 1 + static_cast<int>(rng.uniform_u64(g.max_fires));
    a.post_pct = static_cast<int>(rng.uniform_u64(g.max_post_pct + 1));
    a.throw_pct = static_cast<int>(rng.uniform_u64(g.max_throw_pct + 1));
    a.seed = rng();
    c.actors.push_back(std::move(a));
    c.starts.push_back(kGrid * rng.uniform_u64(20));
  }
  const int segments =
      static_cast<int>(rng.uniform_u64(g.max_segments + 1));
  SimTime bound = 0;
  for (int i = 0; i < segments; ++i) {
    bound += kGrid * (1 + rng.uniform_u64(40));
    c.bounds.push_back(bound);
  }
  c.controller_seed = rng();
  return c;
}

// --- the model both executors run ------------------------------------------

/// What the model needs from an executor.
class Host {
 public:
  virtual ~Host() = default;
  virtual SimTime now(std::size_t shard) = 0;
  virtual void schedule(std::size_t shard, SimTime t, std::uint32_t actor,
                        std::uint64_t tag) = 0;
  virtual void post(std::size_t from, std::size_t to, SimTime t,
                    std::uint32_t actor, std::uint64_t tag) = 0;
  /// Retire every event before `bound`; true when nothing is left.
  virtual bool run_until(SimTime bound) = 0;
};

/// Actors whose state depends on the order of their shard's events: each
/// event is logged, folded into the actor's accumulator, and may schedule,
/// post (tagged with the accumulator) and throw.
class Model {
 public:
  explicit Model(const Case& c) : log(c.shards), c_(c) {
    for (const Actor& a : c.actors) {
      states_.push_back(State{Rng(a.seed), a.fires, a.seed});
    }
  }

  void fire(Host& host, std::uint32_t id, std::uint64_t tag) {
    const Actor& a = c_.actors[id];
    State& st = states_[id];
    const SimTime now = host.now(a.shard);
    log[a.shard].push_back(Retired{now, tag});
    st.acc = (st.acc ^ tag) * 0x100000001b3ull;
    if (st.left-- <= 0) return;
    const std::uint64_t r = st.rng();
    host.schedule(a.shard, now + kGrid * (1 + r % 8), id, st.acc);
    // Up to two posts per event, so one action can send several messages.
    for (int k = 0; k < 2; ++k) {
      const std::uint64_t d = st.rng();
      if (static_cast<int>(d % 100) >= a.post_pct) break;
      const std::uint32_t to = a.peers[(d >> 8) % a.peers.size()];
      const SimTime t =
          now + c_.lookahead + kGrid * ((d >> 16) % c_.post_jitter);
      const std::size_t dst = c_.actors[to].shard;
      if (dst == a.shard) {
        host.schedule(dst, t, to, st.acc + k);
      } else {
        host.post(a.shard, dst, t, to, st.acc + k);
      }
    }
    if (static_cast<int>((r >> 32) % 100) < a.throw_pct) throw FuzzThrow();
  }

  std::vector<std::vector<Retired>> log;  // per shard, in retirement order

 private:
  struct State {
    Rng rng;
    int left;
    std::uint64_t acc;
  };
  const Case& c_;
  std::vector<State> states_;
};

// --- the two executors -----------------------------------------------------

class EngineHost : public Host {
 public:
  EngineHost(const Case& c, Model& m)
      : model_(m), engine_(config(c)) {}

  SimTime now(std::size_t shard) override {
    return engine_.shard(shard).now();
  }
  void schedule(std::size_t shard, SimTime t, std::uint32_t actor,
                std::uint64_t tag) override {
    engine_.shard(shard).schedule_at(
        t, [this, actor, tag] { model_.fire(*this, actor, tag); });
  }
  void post(std::size_t from, std::size_t to, SimTime t, std::uint32_t actor,
            std::uint64_t tag) override {
    engine_.post(from, to, t,
                 [this, actor, tag] { model_.fire(*this, actor, tag); });
  }
  bool run_until(SimTime bound) override { return engine_.run_until(bound); }
  std::uint64_t messages() const { return engine_.messages(); }

 private:
  static ShardedConfig config(const Case& c) {
    ShardedConfig sc;
    sc.shards = c.shards;
    sc.lookahead = c.lookahead;
    sc.mailbox_capacity = 4;  // small, so inboxes grow mid-run
    return sc;
  }
  Model& model_;
  ShardedSimulator engine_;
};

/// The oracle: one global binary heap, popped in (time, origin, counter)
/// order. A throw ends its event and nothing else.
class OracleHost : public Host {
 public:
  OracleHost(const Case& c, Model& m)
      : model_(m), clock_(c.shards, 0), counter_(c.shards, 0) {}

  SimTime now(std::size_t shard) override { return clock_[shard]; }
  void schedule(std::size_t shard, SimTime t, std::uint32_t actor,
                std::uint64_t tag) override {
    push(Event{t, shard, counter_[shard]++, shard, actor, tag});
  }
  void post(std::size_t from, std::size_t to, SimTime t, std::uint32_t actor,
            std::uint64_t tag) override {
    ++messages_;
    push(Event{t, from, counter_[from]++, to, actor, tag});
  }
  bool run_until(SimTime bound) override {
    while (!heap_.empty() && heap_.front().time < bound) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const Event e = heap_.back();
      heap_.pop_back();
      clock_[e.shard] = e.time;
      try {
        model_.fire(*this, e.actor, e.tag);
      } catch (const FuzzThrow&) {
        ++throws;
      }
    }
    return heap_.empty();
  }
  std::uint64_t messages() const { return messages_; }

  std::uint64_t throws = 0;

 private:
  struct Event {
    SimTime time;
    std::size_t origin;
    std::uint64_t counter;
    std::size_t shard;
    std::uint32_t actor;
    std::uint64_t tag;
  };
  // std::*_heap keep the largest element first; invert for a min-heap.
  static bool later(const Event& a, const Event& b) {
    return std::tie(a.time, a.origin, a.counter) >
           std::tie(b.time, b.origin, b.counter);
  }
  void push(const Event& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  Model& model_;
  std::vector<SimTime> clock_;
  std::vector<std::uint64_t> counter_;
  std::vector<Event> heap_;
  std::uint64_t messages_ = 0;
};

// --- one case on one executor ----------------------------------------------

struct Outcome {
  std::vector<std::vector<Retired>> log;
  std::vector<bool> drained;  // per run_until() call that returned
  std::uint64_t throws = 0;
  std::uint64_t messages = 0;
};

template <typename HostT>
Outcome run_case(const Case& c) {
  Model model(c);
  HostT host(c, model);
  for (std::uint32_t a = 0; a < c.actors.size(); ++a) {
    host.schedule(c.actors[a].shard, c.starts[a], a, a);
  }
  Outcome out;
  // The engine lets a throw out of run_until(); the call is repeated, as
  // a caller resuming after an error would.
  const auto segment = [&](SimTime bound) {
    for (;;) {
      try {
        out.drained.push_back(host.run_until(bound));
        return;
      } catch (const FuzzThrow&) {
        ++out.throws;
      }
    }
  };
  Rng controller(c.controller_seed);
  for (const SimTime bound : c.bounds) {
    segment(bound);
    // At the pause, schedule on a few shards at or after the bound.
    const std::uint64_t k = controller.uniform_u64(3);
    for (std::uint64_t i = 0; i < k; ++i) {
      const auto a =
          static_cast<std::uint32_t>(controller.uniform_u64(c.actors.size()));
      host.schedule(c.actors[a].shard, bound + kGrid * controller.uniform_u64(4),
                    a, controller());
    }
  }
  segment(kEnd);
  out.log = std::move(model.log);
  out.messages = host.messages();
  if constexpr (std::is_same_v<HostT, OracleHost>) out.throws += host.throws;
  return out;
}

std::uint64_t fuzz_cases() {
  if (const char* env = std::getenv("ECO_ENGINE_FUZZ_CASES")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 150;
}

/// Runs the regime's cases on both executors and compares them.
void expect_engine_matches_oracle(const Regime& g, std::uint64_t salt) {
  std::uint64_t events = 0;
  const std::uint64_t cases = fuzz_cases();
  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t seed = salt * 0x9e3779b97f4a7c15ull + i;
    const Case c = draw_case(g, seed);
    const Outcome want = run_case<OracleHost>(c);
    const Outcome got = run_case<EngineHost>(c);
    for (std::size_t s = 0; s < c.shards; ++s) {
      ASSERT_EQ(got.log[s], want.log[s])
          << "case seed " << seed << ", shard " << s << " of " << c.shards;
      events += want.log[s].size();
    }
    ASSERT_EQ(got.drained, want.drained) << "case seed " << seed;
    ASSERT_TRUE(want.drained.back()) << "case seed " << seed;
    ASSERT_EQ(got.throws, want.throws) << "case seed " << seed;
    ASSERT_EQ(got.messages, want.messages) << "case seed " << seed;
  }
  EXPECT_GT(events, cases);
}

// --- regimes ---------------------------------------------------------------

// Up to 9 shards (so non-power-of-two tournaments), a few actors each,
// one run() to the end.
TEST(EngineOracle, MixedCasesMatch) {
  expect_engine_matches_oracle(Regime{}, 1);
}

// One actor per shard and rare posts: a few events per shard run, the
// kv_open regime.
TEST(EngineOracle, SparseCasesMatch) {
  Regime g;
  g.max_actors_per_shard = 1;
  g.max_post_pct = 30;
  g.max_fires = 80;
  expect_engine_matches_oracle(g, 2);
}

// Many actors per shard and frequent posts: the engine_mesh regime.
TEST(EngineOracle, DenseCasesMatch) {
  Regime g;
  g.max_shards = 6;
  g.max_actors_per_shard = 12;
  g.max_fires = 25;
  expect_engine_matches_oracle(g, 3);
}

// Every post at exactly the lookahead: each message lands on the edge of
// the run bound its sender's time sets.
TEST(EngineOracle, ExactLookaheadCasesMatch) {
  Regime g;
  g.post_jitter = 1;
  expect_engine_matches_oracle(g, 4);
}

// run_until() pauses with a controller that schedules at each one.
TEST(EngineOracle, SegmentedCasesMatch) {
  Regime g;
  g.max_segments = 8;
  expect_engine_matches_oracle(g, 5);
}

// Actions that throw after scheduling and posting, with pauses.
TEST(EngineOracle, ThrowingCasesMatch) {
  Regime g;
  g.max_throw_pct = 8;
  g.max_segments = 4;
  expect_engine_matches_oracle(g, 6);
}

// Up to 40 shards, one or two actors each: deep tournaments.
TEST(EngineOracle, ManyShardCasesMatch) {
  Regime g;
  g.max_shards = 40;
  g.max_actors_per_shard = 2;
  g.max_fires = 20;
  expect_engine_matches_oracle(g, 7);
}

// The oracle itself, on a case small enough to order by hand: two shards,
// lookahead 10. Shard 0's actor fires at 0 and posts twice to shard 1 at
// 10; shard 1's actor starts at 10 too. Same time: origin 0 (both
// messages, in send order) runs before origin 1 (shard 1's own event).
TEST(EngineOracle, OracleBreaksTiesByOriginThenCounter) {
  Case c;
  c.shards = 2;
  c.lookahead = 10;
  c.post_jitter = 1;
  Actor sender;
  sender.shard = 0;
  sender.peers = {1};
  sender.fires = 1;
  sender.post_pct = 100;
  sender.seed = 12345;
  Actor receiver;
  receiver.shard = 1;
  receiver.peers = {1};
  c.actors = {sender, receiver};
  c.starts = {0, 10};
  const Outcome o = run_case<OracleHost>(c);
  // The sender's accumulator after its first event (start tag 0).
  const std::uint64_t acc = 12345 * 0x100000001b3ull;
  const std::vector<Retired> want = {{10, acc}, {10, acc + 1}, {10, 1}};
  EXPECT_EQ(o.log[1], want);
  EXPECT_EQ(run_case<EngineHost>(c).log, o.log);
}

}  // namespace
}  // namespace ecoscale
