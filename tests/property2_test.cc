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

// Intervals per storage block; the cases below size themselves to cross
// several block boundaries.
constexpr std::size_t kBlock = CalendarTimeline::kBlockIntervals;

/// Reserves on `tl` and `ref` alike and checks both place it at the same
/// start.
void reserve_both(CalendarTimeline& tl, BruteForceCalendar& ref,
                  SimTime ready, SimDuration service) {
  const SimTime expected = ref.place(ready, service);
  EXPECT_EQ(tl.reserve(ready, service), expected)
      << "ready=" << ready << " service=" << service;
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
TEST_P(CalendarSweepRestartFuzz, MatchesBruteForceModel) {
  constexpr int kStreams = 32;
  constexpr int kPerStream = 24;
  constexpr int kEpochs = 8;
  Rng rng(GetParam());
  for (const SimDuration grid : {1, 20}) {
    CalendarTimeline tl;
    BruteForceCalendar reference;
    SimTime epoch_start = 0;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      SimTime barrier = epoch_start;
      for (int k = 0; k < kStreams; ++k) {
        SimTime cursor = epoch_start;
        for (int i = 0; i < kPerStream; ++i) {
          cursor += grid * rng.uniform_u64(4000 / grid);
          const SimDuration service = grid * (1 + rng.uniform_u64(40 / grid));
          const SimTime expected = reference.place(cursor, service);
          ASSERT_EQ(tl.reserve(cursor, service), expected)
              << "grid " << grid << " epoch " << epoch << " stream " << k
              << " reservation " << i;
          cursor = expected + service;
          barrier = std::max(barrier, cursor);
        }
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
          << "grid " << grid << " epoch " << epoch;
      epoch_start = watermark;
    }
    EXPECT_GT(tl.peak_live_intervals(), 4 * kBlock) << "grid " << grid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarSweepRestartFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

// Append gapped runs, each built as X, then Y after a gap, then the gap
// filled so X and Y coalesce: wherever X fills a block, Y opens the next
// one alone and the bridge empties it. Then fill the gaps between runs
// front to back, so the growing first run bridges into, and drains, each
// following block.
TEST(CalendarBlocks, CoalesceBridgesAndEmptiesBlocks) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = 5 * kBlock + 7;
  for (SimTime i = 0; i < kRuns; ++i) {
    reserve_both(tl, reference, 10 * i, 3);      // X = [10i, 10i+3)
    reserve_both(tl, reference, 10 * i + 5, 1);  // Y = [10i+5, 10i+6)
    reserve_both(tl, reference, 10 * i, 2);      // bridges X and Y
    ASSERT_EQ(tl.live_intervals(), i + 1);
  }
  for (SimTime i = 0; i + 1 < kRuns; ++i) {
    reserve_both(tl, reference, 10 * i + 6, 4);  // bridges run 0 and i+1
    ASSERT_EQ(tl.live_intervals(), kRuns - i - 1);
  }
  EXPECT_EQ(tl.live_intervals(), 1u);
  EXPECT_EQ(tl.peak_live_intervals(), kRuns + 1);
  reserve_both(tl, reference, 0, 5);  // appends to the one run
  reserve_both(tl, reference, 10 * kRuns + 9, 5);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
}

// A bridge that erases a block's first interval must move that block's
// index key up. Here block 0 holds runs 0..kBlock-1 with a slot free, and
// block 1 holds runs kBlock and kBlock+1. Bridging runs kBlock-1 and
// kBlock erases block 1's front; an interval then appended to block 0
// starts after the erased run's old start, and the last reservation's
// ready time lies between the two, with a one-tick gap to find.
TEST(CalendarBlocks, BridgeAcrossBlocksMovesTheIndexKey) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = kBlock + 2;
  for (SimTime i = 0; i < kRuns; ++i) {
    reserve_both(tl, reference, 10 * i, 6);  // run i = [10i, 10i+6)
  }
  reserve_both(tl, reference, 6, 4);  // runs 0 and 1 coalesce
  const SimTime seam = 10 * kBlock;   // start of run kBlock
  reserve_both(tl, reference, seam - 4, 4);  // bridges the block seam
  reserve_both(tl, reference, seam + 7, 1);  // [seam+7, seam+8)
  reserve_both(tl, reference, seam + 1, 1);  // fits [seam+6, seam+7)
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(0));
}

// release() drops whole blocks of retired runs, truncates the run that
// straddles the watermark (here the first run of a block) and leaves the
// placements of later reservations unchanged.
TEST(CalendarBlocks, ReleaseDropsWholeBlocksAndTruncatesAStraddler) {
  CalendarTimeline tl;
  BruteForceCalendar reference;
  constexpr SimTime kRuns = 5 * kBlock + 7;
  for (SimTime i = 0; i < kRuns; ++i) {
    reserve_both(tl, reference, 10 * i, 6);  // run i = [10i, 10i+6)
  }
  // Inside run 2 * kBlock: the runs before it are dropped, it is cut.
  const SimTime first = 10 * (2 * kBlock) + 3;
  tl.release(first);
  EXPECT_EQ(tl.pruned_intervals(), 2 * kBlock);
  EXPECT_EQ(tl.live_intervals(), kRuns - 2 * kBlock);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(first));
  reserve_both(tl, reference, first, 1);  // after the truncated tail
  reserve_both(tl, reference, first, 4);  // no longer fits that gap
  // In a gap in the middle of a block: no straddler.
  const SimTime second = 10 * (3 * kBlock + kBlock / 2) + 8;
  tl.release(second);
  EXPECT_EQ(tl.live_intervals(), reference.live_runs(second));
  reserve_both(tl, reference, second, 3);
  reserve_both(tl, reference, second, 3);
  // Past the horizon: nothing is left, and the calendar starts over at
  // the watermark.
  const SimTime past = 10 * kRuns + 100;
  tl.release(past);
  EXPECT_EQ(tl.live_intervals(), 0u);
  EXPECT_EQ(tl.reserve(past, 5), past);
  EXPECT_EQ(tl.reserve(past, 5), past + 5);
  EXPECT_EQ(tl.live_intervals(), 1u);
}

TEST(CalendarBlocks, ResetForgetsEverything) {
  CalendarTimeline tl;
  Rng rng(17);
  for (int i = 0; i < 8 * static_cast<int>(kBlock); ++i) {
    tl.reserve(rng.uniform_u64(100000), 1 + rng.uniform_u64(30));
  }
  tl.release(50000);
  ASSERT_GT(tl.live_intervals(), kBlock);
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
  for (int i = 0; i < 4 * static_cast<int>(kBlock); ++i) {
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
