#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <cstdlib>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"
#include "sim/timeline.h"

namespace ecoscale {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(50, [&] { order.push_back(1); });
  sim.schedule_at(50, [&] { order.push_back(2); });
  sim.schedule_at(50, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_at(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), CheckError);
}

// A keyed event orders by (time, key): at one time, a lower origin (the
// key's top bits) runs first whatever the insertion order, and a
// simulator's own events take its origin.
TEST(Simulator, SameTimeKeyedEventsRunInOriginOrder) {
  Simulator sim;
  sim.set_origin(2);
  std::vector<int> order;
  const auto key = [](std::uint64_t origin, std::uint64_t counter) {
    return (origin << Simulator::kOriginShift) | counter;
  };
  sim.schedule_at(50, [&] { order.push_back(2); });  // origin 2, counter 0
  sim.schedule_keyed(50, key(3, 0), [&] { order.push_back(3); });
  sim.schedule_keyed(50, key(1, 7), [&] { order.push_back(1); });
  sim.schedule_keyed(50, key(1, 4), [&] { order.push_back(0); });
  sim.schedule_keyed(40, key(9, 0), [&] { order.push_back(-1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
  // Local schedules and next_key() share the origin's counter.
  EXPECT_EQ(sim.next_key(), key(2, 1));
}

TEST(Simulator, SetOriginAfterSchedulingIsRejected) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  EXPECT_THROW(sim.set_origin(1), CheckError);
}

TEST(Simulator, KeyedInsertInThePastIsRejected) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_keyed(50, 0, [] {}), CheckError);
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(300, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_FALSE(sim.run_until(400));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, IdleWhenEmpty) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, PendingEventsTracksQueueDepth) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.step();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsPerSecondCounter) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.events_per_second(), 0.0);
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_processed(), 10000u);
  EXPECT_GT(sim.events_per_second(), 0.0);
  EXPECT_GT(sim.wall_time_ns(), 0u);
}

// FNV-1a over the executed (time, counter) trace.
struct TraceHasher {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t trace_hash_workload() {
  TraceHasher hash;
  Simulator sim;
  Rng rng(0xD5EED);
  std::uint64_t executed = 0;
  std::function<void()> tick = [&] {
    hash.mix(sim.now());
    hash.mix(executed++);
    if (executed < 50000) {
      const int fan = 1 + static_cast<int>(rng.uniform_u64(2));
      for (int i = 0; i < fan; ++i) {
        sim.schedule_after(rng.uniform_u64(1000), [&] {
          hash.mix(sim.now());
          hash.mix(executed++);
        });
      }
      sim.schedule_after(1 + rng.uniform_u64(100), tick);
    }
  };
  sim.schedule_at(0, tick);
  sim.run();
  EXPECT_EQ(executed, 50020u);
  return hash.h;
}

// Determinism regression lock: a randomized self-rescheduling workload must
// execute in exactly the same (time, sequence) order as it did on the
// pre-InlineAction kernel (std::function + std::priority_queue). The
// constant below was produced by that kernel; any queue rework that breaks
// tie-breaking or event ordering changes the hash.
TEST(Simulator, DeterministicTraceMatchesSeedKernel) {
  EXPECT_EQ(trace_hash_workload(), 0x45172e9a02a00b3eull);
}

TEST(Simulator, TraceIsReproducibleAcrossRuns) {
  EXPECT_EQ(trace_hash_workload(), trace_hash_workload());
}

// Backlogs past the sorted-run threshold are drained through a different
// code path (one sort + pop_back instead of heap sifts); the execution
// order must still be exactly (time, then insertion order).
TEST(Simulator, LargeBacklogRunsInScheduleOrder) {
  constexpr int kEvents = 20000;  // > sorted-run conversion threshold
  Simulator sim;
  Rng rng(99);
  std::vector<std::pair<SimTime, int>> expected;
  expected.reserve(kEvents);
  std::vector<std::pair<SimTime, int>> executed;
  executed.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime t = rng.uniform_u64(512);  // dense: many exact ties
    expected.emplace_back(t, i);
    sim.schedule_at(t, [&executed, &sim, i] {
      executed.emplace_back(sim.now(), i);
    });
  }
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_EQ(executed, expected);
}

// New events scheduled while a converted backlog drains land in the live
// heap; pops must interleave the two structures in exact time order.
TEST(Simulator, BacklogDrainInterleavesWithFreshEvents) {
  constexpr int kEvents = 20000;
  Simulator sim;
  Rng rng(7);
  std::vector<SimTime> times;
  times.reserve(2 * kEvents);
  for (int i = 0; i < kEvents; ++i) {
    const SimTime t = 10 * rng.uniform_u64(10000);
    sim.schedule_at(t, [&sim, &times] {
      times.push_back(sim.now());
      // Immediate follow-up: must run before any later backlog event.
      sim.schedule_after(1, [&sim, &times] { times.push_back(sim.now()); });
    });
  }
  sim.run();
  ASSERT_EQ(times.size(), 2u * kEvents);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// --- InlineAction ---------------------------------------------------------

TEST(InlineAction, InvokesSmallInlineCapture) {
  int hits = 0;
  InlineAction a([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(a));
  a();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, MovePreservesCallableAndEmptiesSource) {
  int hits = 0;
  InlineAction a([&hits] { ++hits; });
  InlineAction b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  InlineAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, LargeCaptureSpillsToPoolAndStillRuns) {
  std::array<std::uint64_t, 20> payload{};  // 160 bytes > kInlineBytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i;
  std::uint64_t sum = 0;
  InlineAction a([payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  InlineAction b(std::move(a));  // pointer steal, not a copy
  b();
  EXPECT_EQ(sum, 190u);
}

TEST(InlineAction, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* dtors;
    explicit Probe(int* d) : dtors(d) {}
    Probe(const Probe& o) = default;
    ~Probe() { ++*dtors; }
  };
  int dtors = 0;
  {
    Probe p(&dtors);
    InlineAction a([p] {});
    const int after_capture = dtors;
    InlineAction b(std::move(a));
    b();
    // Moving must not leak or double-destroy: exactly one live payload.
    EXPECT_GE(dtors, after_capture);
  }
  // p + the captured copy (and any intermediates) are all gone.
  EXPECT_GT(dtors, 0);
}

TEST(InlineAction, InvokingEmptyActionThrows) {
  InlineAction a;
  EXPECT_THROW(a(), CheckError);
}

TEST(Timeline, NoContentionStartsAtReady) {
  Timeline tl;
  EXPECT_EQ(tl.reserve(100, 50), 100u);
  EXPECT_EQ(tl.next_free(), 150u);
}

TEST(Timeline, ContentionSerializes) {
  Timeline tl;
  tl.reserve(0, 100);
  EXPECT_EQ(tl.reserve(10, 100), 100u);  // waits for the first
  EXPECT_EQ(tl.reserve(500, 10), 500u);  // idle gap, starts at ready
  EXPECT_EQ(tl.busy_time(), 210u);
  EXPECT_EQ(tl.reservations(), 3u);
}

TEST(Timeline, ReserveUntilReturnsCompletion) {
  Timeline tl;
  EXPECT_EQ(tl.reserve_until(100, 25), 125u);
}

TEST(Timeline, Utilization) {
  Timeline tl;
  tl.reserve(0, 500);
  EXPECT_DOUBLE_EQ(tl.utilization(1000), 0.5);
  EXPECT_DOUBLE_EQ(tl.utilization(0), 0.0);
}

TEST(Timeline, ResetClearsState) {
  Timeline tl;
  tl.reserve(0, 100);
  tl.reset();
  EXPECT_EQ(tl.next_free(), 0u);
  EXPECT_EQ(tl.busy_time(), 0u);
}

TEST(CalendarTimeline, BackfillsGaps) {
  CalendarTimeline tl;
  // A future reservation must not block an earlier-ready one.
  EXPECT_EQ(tl.reserve(1000, 100), 1000u);
  EXPECT_EQ(tl.reserve(0, 100), 0u);  // fits in the gap before 1000
  EXPECT_EQ(tl.reserve(0, 950), 1100u);  // too big for [100,1000): after
  EXPECT_EQ(tl.busy_time(), 1150u);
}

TEST(CalendarTimeline, ExactGapFit) {
  CalendarTimeline tl;
  tl.reserve(0, 100);     // [0,100)
  tl.reserve(200, 100);   // [200,300)
  EXPECT_EQ(tl.reserve(0, 100), 100u);  // exactly fills [100,200)
  EXPECT_EQ(tl.reserve(0, 1), 300u);    // nothing left before 300
}

TEST(CalendarTimeline, OverlappingReadySlidesForward) {
  CalendarTimeline tl;
  tl.reserve(0, 100);
  EXPECT_EQ(tl.reserve(50, 10), 100u);  // ready inside a busy interval
}

TEST(CalendarTimeline, ZeroServiceIsFree) {
  CalendarTimeline tl;
  tl.reserve(0, 100);
  EXPECT_EQ(tl.reserve(50, 0), 50u);
}

TEST(CalendarTimeline, MatchesTimelineForInOrderLoads) {
  // When reservations arrive in nondecreasing ready order with no gaps,
  // the calendar behaves like the plain FIFO timeline.
  Timeline fifo;
  CalendarTimeline cal;
  Rng rng(3);
  SimTime ready = 0;
  for (int i = 0; i < 200; ++i) {
    ready += rng.uniform_u64(50);
    const SimDuration service = 1 + rng.uniform_u64(30);
    EXPECT_EQ(fifo.reserve(ready, service), cal.reserve(ready, service));
  }
  EXPECT_EQ(fifo.busy_time(), cal.busy_time());
}

// An action that throws is retired like any other: its capture is
// destroyed and its slot reused, whichever run loop was executing it.
TEST(Simulator, ThrowingActionReleasesItsCapture) {
  const std::vector<std::function<void(Simulator&)>> loops = {
      [](Simulator& sim) { sim.run(); },
      [](Simulator& sim) { sim.run_until(100); },
      [](Simulator& sim) { sim.run_before(100); },
      [](Simulator& sim) { sim.step(); },
  };
  for (std::size_t i = 0; i < loops.size(); ++i) {
    Simulator sim;
    const auto token = std::make_shared<int>(0);
    sim.schedule_at(5, [token] { throw std::runtime_error("boom"); });
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_THROW(loops[i](sim), std::runtime_error) << "loop " << i;
    EXPECT_EQ(token.use_count(), 1) << "loop " << i;
    EXPECT_TRUE(sim.idle());
    // The simulator keeps running afterwards, in the recycled slot.
    int ran = 0;
    sim.schedule_at(6, [&ran] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 1) << "loop " << i;
  }
}

TEST(Simulator, IdleAndPendingInsideAnActionCountItsEventAsGone) {
  Simulator sim;
  std::vector<std::pair<bool, std::size_t>> seen;
  const auto look = [&] { seen.emplace_back(sim.idle(), sim.pending_events()); };
  sim.schedule_at(1, look);
  sim.schedule_at(2, [&] {
    look();
    sim.schedule_after(1, look);
    look();
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::pair<bool, std::size_t>>{
                      {false, 1}, {true, 0}, {false, 1}, {true, 0}}));
}

TEST(Simulator, ReentrantQueueCallsFailTheirCheck) {
  const std::vector<std::function<void(Simulator&)>> calls = {
      [](Simulator& sim) { (void)sim.next_event_time(); },
      [](Simulator& sim) { sim.step(); },
      [](Simulator& sim) { sim.run(); },
      [](Simulator& sim) { sim.run_until(sim.now() + 10); },
      [](Simulator& sim) { sim.run_before(sim.now() + 10); },
  };
  for (std::size_t i = 0; i < calls.size(); ++i) {
    // Before and after the action's first schedule (which releases the
    // held root), the call is refused all the same.
    for (const bool schedule_first : {false, true}) {
      Simulator sim;
      int later = 0;
      sim.schedule_at(5, [&, i, schedule_first] {
        if (schedule_first) sim.schedule_after(1, [&later] { ++later; });
        calls[i](sim);
      });
      sim.schedule_at(7, [&later] { ++later; });
      EXPECT_THROW(sim.run(), CheckError) << "call " << i;
      // The refused call touched nothing: the other events still run.
      EXPECT_EQ(sim.pending_events(), schedule_first ? 2u : 1u);
      sim.run();
      EXPECT_EQ(later, schedule_first ? 2 : 1) << "call " << i;
      EXPECT_TRUE(sim.idle());
    }
  }
}

// --- differential fuzzer: the kernel against a reference queue -----------
//
// Random actions schedule 0-3 follow-ups 0-3 ps out (0 ties at now), and
// some throw, before or between their schedules. Runs, run_until,
// run_before and step segments, with outside schedules between them, drive
// the kernel and a std::priority_queue keyed by (time, insertion seq) that
// shares no code with it; both must retire the same (time, id) sequence
// and agree on the clock and queue depth after every segment. One case in
// 16 starts from a deep batch, so the early-exit sift (heaps past 4096)
// and the sorted backlog (8192) run too.

struct FuzzThrow {};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// What event `id` does: drawn from (seed, id) alone, so both sides act
/// alike as long as they retire the same sequence. No follow-ups once
/// `budget` events exist.
struct FuzzPlan {
  int follow_ups = 0;
  int throw_after = -1;  // throws after this many schedules; -1: never
  SimDuration delay[3] = {};
};

FuzzPlan fuzz_plan(std::uint64_t seed, std::uint64_t id,
                   std::uint64_t created, std::uint64_t budget) {
  std::uint64_t h = splitmix(seed ^ splitmix(id));
  FuzzPlan p;
  p.follow_ups = created >= budget ? 0 : static_cast<int>(h & 3);
  h >>= 2;
  for (SimDuration& d : p.delay) {
    d = h & 3;
    h >>= 2;
  }
  if (h % 12 == 0) {
    p.throw_after = static_cast<int>((h >> 4) % (p.follow_ups + 1));
  }
  return p;
}

struct Retired {
  SimTime time;
  std::uint64_t id;
  std::size_t pending;  // queue depth the action saw, itself excluded
  bool operator==(const Retired&) const = default;
};

struct KernelSide {
  Simulator sim;
  std::uint64_t seed = 0;
  std::uint64_t budget = 0;
  std::uint64_t created = 0;
  std::vector<Retired> log;

  void schedule(SimTime t) {
    const std::uint64_t id = created++;
    sim.schedule_at(t, [this, id] { fire(id); });
  }
  void fire(std::uint64_t id) {
    log.push_back({sim.now(), id, sim.pending_events()});
    ASSERT_EQ(sim.idle(), sim.pending_events() == 0);
    const FuzzPlan p = fuzz_plan(seed, id, created, budget);
    for (int i = 0; i < p.follow_ups; ++i) {
      if (i == p.throw_after) throw FuzzThrow{};
      schedule(sim.now() + p.delay[i]);
    }
    if (p.throw_after == p.follow_ups) throw FuzzThrow{};
  }
  /// Runs one segment; returns whether an action threw.
  template <typename F>
  bool segment(F&& f) {
    try {
      f();
    } catch (const FuzzThrow&) {
      return true;
    }
    return false;
  }
};

struct ReferenceSide {
  struct Item {
    SimTime time;
    std::uint64_t id;  // insertion order
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> queue;
  SimTime now = 0;
  std::uint64_t seed = 0;
  std::uint64_t budget = 0;
  std::uint64_t created = 0;
  std::vector<Retired> log;

  void schedule(SimTime t) { queue.push({t, created++}); }
  /// Retires the earliest event; returns false if its action threw.
  bool retire() {
    const Item e = queue.top();
    queue.pop();
    now = e.time;
    log.push_back({now, e.id, queue.size()});
    const FuzzPlan p = fuzz_plan(seed, e.id, created, budget);
    for (int i = 0; i < p.follow_ups; ++i) {
      if (i == p.throw_after) return false;
      schedule(now + p.delay[i]);
    }
    return p.throw_after != p.follow_ups;
  }
  /// Retires while events before (or at, if `inclusive`) `t` remain;
  /// returns whether an action threw.
  bool drain(SimTime t, bool inclusive) {
    while (!queue.empty() &&
           (queue.top().time < t || (inclusive && queue.top().time == t))) {
      if (!retire()) return true;
    }
    return false;
  }
};

std::uint64_t kernel_fuzz_cases() {
  if (const char* env = std::getenv("ECO_ENGINE_FUZZ_CASES")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 150;
}

void run_kernel_fuzz_case(std::uint64_t seed) {
  Rng rng(seed);
  KernelSide k;
  ReferenceSide r;
  const bool deep = rng.uniform_u64(16) == 0;
  const std::uint64_t initial =
      deep ? 4000 + rng.uniform_u64(6000) : 1 + rng.uniform_u64(8);
  k.seed = r.seed = seed;
  k.budget = r.budget = initial + 50 + rng.uniform_u64(400);
  for (std::uint64_t i = 0; i < initial; ++i) {
    const SimTime t = rng.uniform_u64(deep ? 2000 : 6);
    k.schedule(t);
    r.schedule(t);
  }
  constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();
  for (int seg = 0; !r.queue.empty() || !k.sim.idle(); ++seg) {
    ASSERT_LT(seg, 100000) << "seed " << seed << ": no progress";
    if (rng.chance(0.25)) {
      const std::uint64_t n = 1 + rng.uniform_u64(3);
      for (std::uint64_t i = 0; i < n; ++i) {
        const SimTime t = r.now + rng.uniform_u64(4);
        k.schedule(t);
        r.schedule(t);
      }
    }
    const SimTime t = r.now + rng.uniform_u64(9);
    bool k_threw = false;
    bool r_threw = false;
    switch (rng.uniform_u64(4)) {
      case 0:
        k_threw = k.segment([&] { k.sim.run(); });
        r_threw = r.drain(kEnd, true);
        break;
      case 1:
        k_threw = k.segment([&] { k.sim.run_until(t); });
        r_threw = r.drain(t, true);
        if (!r_threw) r.now = std::max(r.now, t);
        break;
      case 2:
        k_threw = k.segment([&] { k.sim.run_before(t); });
        r_threw = r.drain(t, false);
        break;
      default:
        k_threw = k.segment([&] { k.sim.step(); });
        r_threw = !r.queue.empty() && !r.retire();
        break;
    }
    ASSERT_EQ(k_threw, r_threw) << "seed " << seed << " segment " << seg;
    ASSERT_EQ(k.sim.now(), r.now) << "seed " << seed << " segment " << seg;
    ASSERT_EQ(k.sim.pending_events(), r.queue.size())
        << "seed " << seed << " segment " << seg;
    ASSERT_EQ(k.log.size(), r.log.size())
        << "seed " << seed << " segment " << seg;
  }
  ASSERT_EQ(k.log.size(), r.log.size()) << "seed " << seed;
  for (std::size_t i = 0; i < r.log.size(); ++i) {
    ASSERT_EQ(k.log[i], r.log[i])
        << "seed " << seed << ": retired event " << i << " is (" << k.log[i].time
        << ", " << k.log[i].id << ", " << k.log[i].pending << "), want ("
        << r.log[i].time << ", " << r.log[i].id << ", " << r.log[i].pending
        << ")";
  }
}

TEST(Simulator, MatchesAReferenceQueueOnRandomSchedules) {
  const std::uint64_t cases = kernel_fuzz_cases();
  for (std::uint64_t i = 0; i < cases; ++i) {
    run_kernel_fuzz_case(0x5EEDF00Dull + i);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ecoscale
