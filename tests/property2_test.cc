// Second property-test suite: randomised differential and invariant checks
// on the stateful subsystems.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "hls/dse.h"
#include "runtime/scheduler.h"
#include "sim/timeline.h"
#include "unimem/pgas.h"

namespace ecoscale {
namespace {

// --- PGAS backing store vs. a flat reference model -----------------------------

class PgasFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PgasFuzz, MatchesReferenceByteModel) {
  Rng rng(GetParam());
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  PgasSystem pgas(cfg);
  constexpr Bytes kSize = 3 * kPageSize + 123;
  const auto base = pgas.alloc(1, 1, kSize);
  std::vector<std::uint8_t> reference(kSize, 0);
  for (int op = 0; op < 300; ++op) {
    const Bytes offset = rng.uniform_u64(kSize);
    const Bytes len = 1 + rng.uniform_u64(std::min<Bytes>(kSize - offset,
                                                          2 * kPageSize));
    if (rng.chance(0.5)) {
      std::vector<std::uint8_t> data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
      pgas.write_bytes(base + offset, data);
      std::copy(data.begin(), data.end(), reference.begin() + offset);
    } else {
      std::vector<std::uint8_t> out(len);
      pgas.read_bytes(base + offset, out);
      for (Bytes i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], reference[offset + i])
            << "mismatch at offset " << offset + i << " op " << op;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PgasFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- atomics linearise: concurrent counter reaches the exact total ---------------

class AtomicFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtomicFuzz, FetchAddTotalsExactly) {
  Rng rng(GetParam());
  PgasConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 4;
  PgasSystem pgas(cfg);
  const auto counter = pgas.alloc(0, 0, 64);
  std::uint64_t expected = 0;
  std::vector<SimTime> clocks(pgas.worker_count(), 0);
  for (int i = 0; i < 400; ++i) {
    const std::size_t w = rng.uniform_u64(pgas.worker_count());
    const std::uint64_t delta = rng.uniform_u64(100);
    const auto r = pgas.atomic_rmw(pgas.coord(w), counter,
                                   AtomicOp::kFetchAdd, delta, clocks[w]);
    clocks[w] = r.finish;
    expected += delta;
  }
  const auto final = pgas.atomic_rmw({0, 0}, counter, AtomicOp::kFetchAdd,
                                     0, milliseconds(100));
  EXPECT_EQ(final.old_value, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicFuzz, ::testing::Values(7, 8, 9));

// --- CalendarTimeline: intervals never overlap ------------------------------------

class CalendarFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalendarFuzz, NoTwoReservationsOverlap) {
  Rng rng(GetParam());
  CalendarTimeline tl;
  std::vector<std::pair<SimTime, SimTime>> intervals;
  SimDuration total = 0;
  for (int i = 0; i < 600; ++i) {
    const SimTime ready = rng.uniform_u64(100000);
    const SimDuration service = 1 + rng.uniform_u64(500);
    const SimTime start = tl.reserve(ready, service);
    ASSERT_GE(start, ready);
    intervals.emplace_back(start, start + service);
    total += service;
  }
  std::sort(intervals.begin(), intervals.end());
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    ASSERT_LE(intervals[i - 1].second, intervals[i].first)
        << "overlap between reservations " << i - 1 << " and " << i;
  }
  EXPECT_EQ(tl.busy_time(), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarFuzz,
                         ::testing::Values(11, 22, 33, 44));

// --- CalendarTimeline pruning/coalescing vs a brute-force interval model ----------

/// Reference first-fit placement over an explicit, never-pruned,
/// never-coalesced interval list — the behaviour CalendarTimeline had
/// before the watermark/coalescing rework.
class BruteForceCalendar {
 public:
  SimTime place(SimTime ready, SimDuration service) {
    SimTime candidate = ready;
    std::size_t pos = 0;
    for (; pos < intervals_.size(); ++pos) {
      const auto& [start, end] = intervals_[pos];
      if (end <= candidate) continue;
      if (candidate + service <= start) break;  // fits in the gap before
      candidate = end;
    }
    // Every interval before `pos` starts before `candidate`, so this keeps
    // the list sorted.
    intervals_.emplace(intervals_.begin() + static_cast<std::ptrdiff_t>(pos),
                       candidate, candidate + service);
    return candidate;
  }

  /// Maximal busy runs (abutting intervals merged) that end after
  /// `watermark`: the intervals a coalescing calendar released at
  /// `watermark` must still hold live.
  std::size_t live_runs(SimTime watermark) const {
    std::size_t runs = 0;
    for (std::size_t i = 0; i < intervals_.size(); ++i) {
      const bool run_ends = i + 1 == intervals_.size() ||
                            intervals_[i + 1].first != intervals_[i].second;
      if (run_ends && intervals_[i].second > watermark) ++runs;
    }
    return runs;
  }

 private:
  std::vector<std::pair<SimTime, SimTime>> intervals_;
};

class CalendarPruneFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// release(watermark) and interval coalescing are pure space optimizations:
// as long as every later reservation has ready >= watermark (which the
// epoch-boundary call sites guarantee — the watermark is a completed
// epoch), start times must match the unpruned brute-force model exactly.
TEST_P(CalendarPruneFuzz, PrunedPlacementMatchesBruteForceModel) {
  Rng rng(GetParam());
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr int kReservations = 1500;
  SimTime watermark = 0;
  for (int i = 0; i < kReservations; ++i) {
    const SimTime ready = watermark + rng.uniform_u64(2000);
    const SimDuration service = 1 + rng.uniform_u64(100);
    const SimTime expected = reference.place(ready, service);
    ASSERT_EQ(tl.reserve(ready, service), expected)
        << "reservation " << i << " ready=" << ready
        << " service=" << service << " watermark=" << watermark;
    if (i % 50 == 49) {
      watermark += rng.uniform_u64(400);
      tl.release(watermark);
    }
  }
  // Acceptance: the live-interval set must not grow linearly with the
  // reservation count once the watermark advances — pruning drops the
  // retired past and coalescing fuses the packed frontier.
  EXPECT_LT(tl.peak_live_intervals(), kReservations / 4);
  EXPECT_GT(tl.pruned_intervals(), 0u);
  // Releasing past the horizon empties the calendar entirely.
  tl.release(watermark + 1000000);
  EXPECT_EQ(tl.live_intervals(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarPruneFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

/// Reserves on `tl` and `ref` alike and checks both place it at the same
/// start.
void reserve_both(CalendarTimeline& tl, BruteForceCalendar& ref,
                  SimTime ready, SimDuration service) {
  const SimTime expected = ref.place(ready, service);
  EXPECT_EQ(tl.reserve(ready, service), expected)
      << "ready=" << ready << " service=" << service;
}

/// Appends `runs` busy runs [spacing * i, spacing * i + length) on both.
void append_runs(CalendarTimeline& tl, BruteForceCalendar& ref,
                 SimTime runs, SimTime spacing, SimDuration length) {
  for (SimTime i = 0; i < runs; ++i) {
    reserve_both(tl, ref, spacing * i, length);
  }
}

class CalendarSweepRestartFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

// The graph engine's traffic: every epoch, K workers sweep one after
// another, and each starts from the epoch's barrier time. So a calendar
// sees K monotone streams that each restart at the epoch start, and
// release() runs only at the barrier. Most reservations land before the
// last tracked interval, across hundreds of live intervals. On a coarse
// time grid, intervals often abut, so inserts coalesce and bridge, and
// some end exactly at the watermark.
// The second shape interleaves 2-4 monotone streams that each restart at
// the epoch start now and then, so the landing point hops back and forth
// across the calendar between consecutive reservations.
TEST_P(CalendarSweepRestartFuzz, MatchesBruteForceModel) {
  constexpr int kStreams = 32;
  constexpr int kPerStream = 24;
  constexpr int kEpochs = 8;
  struct Shape {
    std::size_t streams;
    bool interleaved;
  };
  Rng rng(GetParam());
  const std::size_t interleaved_streams = 2 + GetParam() % 3;
  for (const Shape shape :
       {Shape{kStreams, false}, Shape{interleaved_streams, true}}) {
    for (const SimDuration grid : {1, 20}) {
      CalendarTimeline tl;
      BruteForceCalendar reference;
      SimTime epoch_start = 0;
      for (int epoch = 0; epoch < kEpochs; ++epoch) {
        SimTime barrier = epoch_start;
        std::vector<SimTime> cursors(shape.streams, epoch_start);
        for (int n = 0; n < kStreams * kPerStream; ++n) {
          std::size_t k = static_cast<std::size_t>(n / kPerStream);
          if (shape.interleaved) {
            k = rng.uniform_u64(shape.streams);
            if (rng.chance(0.02)) cursors[k] = epoch_start;  // restart
          }
          SimTime& cursor = cursors[k];
          cursor += grid * rng.uniform_u64(4000 / grid);
          const SimDuration service = grid * (1 + rng.uniform_u64(40 / grid));
          const SimTime expected = reference.place(cursor, service);
          ASSERT_EQ(tl.reserve(cursor, service), expected)
              << "streams " << shape.streams << " grid " << grid
              << " epoch " << epoch << " stream " << k << " reservation "
              << n;
          cursor = expected + service;
          barrier = std::max(barrier, cursor);
        }
        // Usually the barrier itself; sometimes earlier, so an interval
        // straddles the watermark and the next epoch must skip its tail.
        const SimTime watermark =
            rng.chance(0.5)
                ? barrier
                : barrier - grid * rng.uniform_u64((barrier - epoch_start) /
                                                   grid / 4);
        tl.release(watermark);
        ASSERT_EQ(tl.live_intervals(), reference.live_runs(watermark))
            << "streams " << shape.streams << " grid " << grid << " epoch "
            << epoch;
        epoch_start = watermark;
      }
      EXPECT_GT(tl.peak_live_intervals(), 256u)
          << "streams " << shape.streams << " grid " << grid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarSweepRestartFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// The calendar keeps a gap where the last reservation landed. A landing
// that abuts both the interval before the gap and the one after it fuses
// the two, so the live count drops by one: first after a backward jump,
// then stepping forward run by run, then after jumps back again.
TEST(CalendarGapBuffer, CoalesceBridgesBothSidesOfTheGap) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = 300;
  append_runs(tl, reference, kRuns, 10, 6);  // run i = [10i, 10i+6)
  std::size_t live = kRuns;
  // Backward jump to run 100, then bridge forward: each fill abuts the
  // grown run before the gap and the next run after it.
  for (SimTime i = 100; i < 200; ++i) {
    reserve_both(tl, reference, 10 * i + 6, 4);
    ASSERT_EQ(tl.live_intervals(), --live) << "forward bridge " << i;
  }
  // Backward jumps: each bridge lands before the previous one.
  for (SimTime i = 99; i >= 50; --i) {
    reserve_both(tl, reference, 10 * i + 6, 4);
    ASSERT_EQ(tl.live_intervals(), --live) << "backward bridge " << i;
  }
  // Ready before the bridged run: the walk crosses it and bridges the
  // next hole, at 10 * 200 + 6.
  reserve_both(tl, reference, 10 * 50, 4);
  ASSERT_EQ(tl.live_intervals(), --live);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
  EXPECT_EQ(tl.peak_live_intervals(), kRuns);
}

// Every hole is 4 ticks wide, so a 5-tick reservation ready at 0 jumps
// back to the front and walks over the whole array to append at the end;
// a 1-tick one then jumps back to the front and lands in the first hole.
TEST(CalendarGapBuffer, BackwardJumpToTheFrontThenWalkTheWholeArray) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = 500;
  append_runs(tl, reference, kRuns, 10, 6);  // run i = [10i, 10i+6)
  for (int round = 0; round < 3; ++round) {
    reserve_both(tl, reference, 0, 1);  // into the front hole
    reserve_both(tl, reference, 0, 5);  // no hole fits: appended
    reserve_both(tl, reference, 1, 2);  // the front hole again
  }
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
  // Ready mid-array after a landing at the end: a binary search of the
  // part before the gap.
  reserve_both(tl, reference, 10 * (kRuns / 2), 3);
  reserve_both(tl, reference, 10 * (kRuns / 2) + 9, 1);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
}

// A full array grows while the gap sits mid-array: intervals before the
// gap must stay at the front and those after it move to the back. Holes
// are filled front to back and then back to front, so the live count
// passes several capacities with intervals on both sides of the gap.
TEST(CalendarGapBuffer, GrowsWithTheGapMidArray) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = 300;
  append_runs(tl, reference, kRuns, 20, 6);  // run i = [20i, 20i+6)
  std::size_t live = kRuns;
  for (SimTime i = 0; i + 1 < kRuns; ++i) {
    reserve_both(tl, reference, 20 * i + 8, 2);  // forward steps
    ASSERT_EQ(tl.live_intervals(), ++live) << "forward fill " << i;
  }
  for (SimTime i = kRuns - 1; i-- > 0;) {
    reserve_both(tl, reference, 20 * i + 14, 2);  // backward jumps
    ASSERT_EQ(tl.live_intervals(), ++live) << "backward fill " << i;
  }
  // Every interval survived the moves: the holes left at the front still
  // take reservations where the reference puts them.
  reserve_both(tl, reference, 0, 2);
  reserve_both(tl, reference, 0, 2);
  reserve_both(tl, reference, 0, 3);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
}

// release() with the gap mid-array: it drops a retired prefix that spans
// both sides of the gap or only part of the side before it, truncates the
// run that straddles the watermark, and leaves later placements unchanged.
TEST(CalendarGapBuffer, ReleaseWithTheGapMidArray) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = 400;
  append_runs(tl, reference, kRuns, 10, 6);  // run i = [10i, 10i+6)
  // Gap after run 50; the watermark falls inside run 100, after the gap.
  reserve_both(tl, reference, 10 * 50 + 7, 1);
  const SimTime first = 10 * 100 + 3;
  tl.release(first);
  EXPECT_EQ(tl.pruned_intervals(), 101u);  // runs 0..99 and the 1-tick one
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(first));
  reserve_both(tl, reference, first, 1);  // after the truncated tail
  reserve_both(tl, reference, first, 4);  // no longer fits that gap
  // Gap after run 300; the watermark falls inside run 200, before the
  // gap, so only part of the prefix goes.
  reserve_both(tl, reference, 10 * 300 + 7, 1);
  const SimTime second = 10 * 200 + 4;
  tl.release(second);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(second));
  reserve_both(tl, reference, second, 1);
  reserve_both(tl, reference, second, 5);
  // Gap after run 350 again; the watermark falls in a hole after it.
  reserve_both(tl, reference, 10 * 350 + 7, 1);
  const SimTime third = 10 * 370 + 8;
  tl.release(third);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(third));
  reserve_both(tl, reference, third, 2);
  reserve_both(tl, reference, third, 2);
  // Past the horizon: nothing is left, and the calendar starts over at
  // the watermark.
  const SimTime past = 10 * kRuns + 100;
  tl.release(past);
  EXPECT_EQ(tl.live_intervals(), 0u);
  EXPECT_EQ(tl.reserve(past, 5), past);
  EXPECT_EQ(tl.reserve(past, 5), past + 5);
  EXPECT_EQ(tl.live_intervals(), 1u);
}

TEST(CalendarGapBuffer, ResetForgetsEverything) {
  CalendarTimeline tl;
  Rng rng(17);
  for (int i = 0; i < 512; ++i) {
    tl.reserve(rng.uniform_u64(100000), 1 + rng.uniform_u64(30));
  }
  tl.release(50000);
  ASSERT_GT(tl.live_intervals(), 64u);
  tl.reset();
  EXPECT_EQ(tl.live_intervals(), 0u);
  EXPECT_EQ(tl.peak_live_intervals(), 0u);
  EXPECT_EQ(tl.pruned_intervals(), 0u);
  EXPECT_EQ(tl.reservations(), 0u);
  EXPECT_EQ(tl.busy_time(), 0u);
  EXPECT_EQ(tl.horizon(), 0u);
  EXPECT_EQ(tl.watermark(), 0u);
  // A reset calendar places exactly like a new one.
  BruteForceCalendar reference;
  for (int i = 0; i < 256; ++i) {
    reserve_both(tl, reference, rng.uniform_u64(20000),
                 1 + rng.uniform_u64(30));
  }
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
}

// --- scheduler conservation across the policy grid --------------------------------

using PolicyPoint = std::tuple<PlacementPolicy, DistributionPolicy, bool>;

class SchedulerGrid : public ::testing::TestWithParam<PolicyPoint> {};

TEST_P(SchedulerGrid, EveryTaskCompletesExactlyOnce) {
  const auto [placement, distribution, share] = GetParam();
  MachineConfig mc;
  mc.nodes = 2;
  mc.workers_per_node = 4;
  Machine machine(mc);
  Simulator sim;
  RuntimeConfig rc;
  rc.placement = placement;
  rc.distribution = distribution;
  rc.share_fabric = share;
  rc.spill_depth = 2;
  RuntimeSystem runtime(machine, sim, rc);
  const auto kernels = {make_stencil5_kernel(), make_montecarlo_kernel()};
  for (const auto& k : kernels) {
    runtime.register_kernel(k, emit_variants(k, 2));
  }
  Rng rng(99);
  constexpr int kTasks = 60;
  for (TaskId i = 0; i < kTasks; ++i) {
    Task t;
    t.id = i;
    const auto& k = *(kernels.begin() + (i % 2));
    t.kernel = k.id;
    t.items = 1000 + rng.uniform_u64(100000);
    t.features.items = static_cast<double>(t.items);
    t.home = WorkerCoord{static_cast<NodeId>(rng.uniform_u64(2)),
                         static_cast<WorkerId>(rng.uniform_u64(4))};
    t.release = rng.uniform_u64(milliseconds(5));
    runtime.submit(t);
  }
  runtime.run();
  // Conservation: exactly one result per task id; time sanity per result.
  std::map<TaskId, int> seen;
  for (const auto& r : runtime.results()) {
    ++seen[r.id];
    EXPECT_GE(r.started, r.release);
    EXPECT_GT(r.finished, r.started);
    EXPECT_GE(r.energy, 0.0);
    EXPECT_LT(r.executed_on, machine.worker_count());
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kTasks));
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "task " << id;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerGrid,
    ::testing::Combine(
        ::testing::Values(PlacementPolicy::kAlwaysSoftware,
                          PlacementPolicy::kAlwaysHardware,
                          PlacementPolicy::kSizeThreshold,
                          PlacementPolicy::kModelBased),
        ::testing::Values(DistributionPolicy::kHomeOnly,
                          DistributionPolicy::kLazyLocal,
                          DistributionPolicy::kCentralized,
                          DistributionPolicy::kPollLeastLoaded),
        ::testing::Bool()));

// --- reconfiguration: floorplan consistency under random runtime churn ----------

class ReconfigChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconfigChurn, LoadedSetAlwaysMatchesFloorplan) {
  Rng rng(GetParam());
  ReconfigConfig cfg;
  cfg.fabric_width = 8;
  cfg.fabric_height = 8;
  ReconfigManager mgr("f", cfg);
  std::vector<AcceleratorModule> lib;
  for (const auto& k :
       {make_stencil5_kernel(), make_matmul_tile_kernel(),
        make_montecarlo_kernel(), make_cart_split_kernel(),
        make_sha_like_kernel(), make_spmv_kernel(), make_fft_kernel()}) {
    lib.push_back(emit_variants(k, 1).front());
  }
  SimTime now = 0;
  for (int step = 0; step < 300; ++step) {
    now += microseconds(100);
    const auto& m = lib[rng.uniform_u64(lib.size())];
    if (rng.chance(0.7)) {
      const auto r = mgr.ensure_loaded(m, now);
      if (r) {
        EXPECT_TRUE(mgr.is_loaded(m.kernel));
        EXPECT_TRUE(mgr.floorplan().is_live(r->region));
        if (rng.chance(0.5)) {
          mgr.set_busy_until(r->region, r->ready + microseconds(50));
        }
      }
    } else if (mgr.is_loaded(m.kernel) &&
               mgr.is_idle(m.kernel, now)) {
      mgr.unload(m.kernel);
      EXPECT_FALSE(mgr.is_loaded(m.kernel));
    }
    // Invariant: every loaded kernel has a live region; used slots equal
    // the sum of loaded shapes.
    std::size_t expected_slots = 0;
    for (const auto& mod : lib) {
      if (mgr.is_loaded(mod.kernel)) {
        const auto region = mgr.region_of(mod.kernel);
        ASSERT_TRUE(region.has_value());
        ASSERT_TRUE(mgr.floorplan().is_live(*region));
        expected_slots += mgr.floorplan().placement(*region).shape.slots();
      }
    }
    EXPECT_EQ(mgr.floorplan().used_slots(), expected_slots);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigChurn, ::testing::Values(3, 6, 9));

}  // namespace
}  // namespace ecoscale
