#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/inline_action.h"
#include "sim/server.h"
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

TEST(Server, ProcessesFifo) {
  Simulator sim;
  Server server(sim, "s");
  std::vector<SimTime> finishes;
  server.submit(100, [&](SimTime t) { finishes.push_back(t); });
  server.submit(50, [&](SimTime t) { finishes.push_back(t); });
  sim.run();
  EXPECT_EQ(finishes, (std::vector<SimTime>{100, 150}));
  EXPECT_EQ(server.completed(), 2u);
  EXPECT_EQ(server.busy_time(), 150u);
}

TEST(Server, QueueLengthTracksBacklog) {
  Simulator sim;
  Server server(sim, "s");
  server.submit(100, nullptr);
  server.submit(100, nullptr);
  server.submit(100, nullptr);
  EXPECT_EQ(server.queue_length(), 3u);
  sim.run();
  EXPECT_EQ(server.queue_length(), 0u);
}

TEST(Server, CompletionCanSubmitMore) {
  Simulator sim;
  Server server(sim, "s");
  int chain = 0;
  std::function<void(SimTime)> next = [&](SimTime) {
    if (++chain < 3) server.submit(10, next);
  };
  server.submit(10, next);
  sim.run();
  EXPECT_EQ(chain, 3);
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Server, SubmittedAfterIdleResumesAtCurrentTime) {
  Simulator sim;
  Server server(sim, "s");
  SimTime second_finish = 0;
  server.submit(10, nullptr);
  sim.run();
  sim.schedule_at(100, [&] {
    server.submit(5, [&](SimTime t) { second_finish = t; });
  });
  sim.run();
  EXPECT_EQ(second_finish, 105u);
}

}  // namespace
}  // namespace ecoscale
