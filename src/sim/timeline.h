// Reservation-style sequential resource.
//
// A Timeline models a serially reusable resource (a DRAM channel, a link, a
// configuration port, an accelerator pipeline issue slot). Callers reserve a
// service interval starting no earlier than their ready time; contention
// emerges from back-to-back reservations. This analytic style composes with
// the event-driven Simulator: flows compute their completion times through a
// chain of reservations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace ecoscale {

class Timeline {
 public:
  Timeline() = default;
  explicit Timeline(std::string name) : name_(std::move(name)) {}

  /// Reserve `service` time starting at max(ready, next_free).
  /// Returns the start time of service; the resource becomes free at
  /// start + service.
  SimTime reserve(SimTime ready, SimDuration service) {
    const SimTime start = ready > next_free_ ? ready : next_free_;
    next_free_ = start + service;
    busy_ += service;
    ++reservations_;
    return start;
  }

  /// Completion time of a reservation made at `ready` for `service`.
  SimTime reserve_until(SimTime ready, SimDuration service) {
    return reserve(ready, service) + service;
  }

  SimTime next_free() const { return next_free_; }
  SimDuration busy_time() const { return busy_; }
  std::uint64_t reservations() const { return reservations_; }
  const std::string& name() const { return name_; }

  /// Utilization over [0, horizon].
  double utilization(SimTime horizon) const {
    if (horizon == 0) return 0.0;
    const SimDuration b = busy_ < horizon ? busy_ : horizon;
    return static_cast<double>(b) / static_cast<double>(horizon);
  }

  void reset() {
    next_free_ = 0;
    busy_ = 0;
    reservations_ = 0;
  }

 private:
  std::string name_;
  SimTime next_free_ = 0;
  SimDuration busy_ = 0;
  std::uint64_t reservations_ = 0;
};

/// Gap-filling variant of Timeline for resources whose reservations arrive
/// out of time order (a remote request reserves the destination DRAM at a
/// *future* arrival time; a later call may legitimately want an earlier
/// slot). A plain Timeline would ratchet `next_free` to the furthest
/// reservation and serialise everything behind it; the calendar keeps the
/// set of busy intervals and places each reservation in the first gap at
/// or after its ready time.
///
/// Traffic: reserve() sits on the per-access path of every link and DRAM
/// channel, and arrivals are not monotone: a remote access reserves each
/// hop and the destination DRAM at its own future arrival time. The graph
/// engine interleaves its workers in simulated time (serve/graph.h): a
/// min-heap over (cursor, worker) advances the worker with the earliest
/// cursor by one vertex, ties to the lower worker id, so all workers'
/// streams reach a calendar nearly in time order instead of one stream
/// per worker, each restarting at the iteration start. Every later step
/// starts at or after the popped cursor, so the engine also releases the
/// calendars behind it during the sweep, not only at the barrier. One
/// vertex step still issues its whole adjacency before the next pop, so
/// on one ecobench graph rep (seed 1, ~2.96M reservations) 67% of the
/// reservations land before the last interval; with the workers swept
/// one after another it was 79%. kv_open lands none there and kv_phase
/// fewer than 0.1%.
///
/// Storage: a gap buffer. The busy intervals live in one array, in start
/// order, and the free slots form a gap [gs_, ge_) that stays where the
/// last reservation landed. A reservation moves across the gap exactly
/// the intervals between the previous landing and its own, so its cost is
/// O(distance): a forward step walks the intervals the lookup has to pass
/// anyway, and a backward jump binary-searches the prefix and moves the
/// skipped range in one copy. The worst case is two streams alternating
/// between the far ends of the array, O(live) per reservation (~160 us at
/// 131k live intervals, bench_micro's BM_CalendarPingPong); no caller in
/// the repository does that. A full array grows by 1.5x (2x cost ~8% more
/// peak RSS on the graph workload), prefix to the front and suffix to the
/// back.
///
/// Two mechanisms keep the interval set small over long runs (it used to
/// grow by one entry per reservation, turning reserve() into a scalability
/// cliff for bench_holistic-sized workloads):
///  - adjacent intervals are coalesced on insert, so back-to-back
///    reservations collapse into one interval instead of accumulating;
///  - release(watermark) prunes every interval that ends at or before the
///    watermark once the caller can promise that no future reservation will
///    be ready before it. Post-watermark reservations see exactly the same
///    start times as they would without pruning. The array keeps its
///    capacity, so a warmed-up epoch loop never allocates.
class CalendarTimeline {
 public:
  CalendarTimeline() = default;
  explicit CalendarTimeline(std::string name) : name_(std::move(name)) {}

  /// Reserve `service` time in the first gap starting at or after `ready`.
  /// Returns the start of service. `ready` values before the release
  /// watermark are clamped up to it (the pruned past is treated as busy).
  SimTime reserve(SimTime ready, SimDuration service) {
    ++reservations_;
    busy_ += service;
    if (service == 0) return ready;
    SimTime candidate = ready > watermark_ ? ready : watermark_;
    // Put the gap at the first interval starting after `candidate`.
    Interval* const iv = buf_.get();
    if (gs_ > 0 && iv[gs_ - 1].start > candidate) {
      const std::size_t p = static_cast<std::size_t>(
          std::upper_bound(iv, iv + gs_, candidate,
                           [](SimTime t, const Interval& v) {
                             return t < v.start;
                           }) -
          iv);
      ge_ -= gs_ - p;
      shift(iv + p, iv + gs_, iv + ge_);
      gs_ = p;
    } else {
      while (ge_ < cap_ && iv[ge_].start <= candidate) iv[gs_++] = iv[ge_++];
    }
    // The interval before the gap may still overlap; then walk forward
    // over the overlaps, moving each across the gap.
    if (gs_ > 0 && iv[gs_ - 1].end > candidate) candidate = iv[gs_ - 1].end;
    while (ge_ < cap_ && iv[ge_].start < candidate + service) {
      candidate = std::max(candidate, iv[ge_].end);
      iv[gs_++] = iv[ge_++];
    }
    land(candidate, candidate + service);
    horizon_ = std::max(horizon_, candidate + service);
    peak_live_ = std::max(peak_live_, live_intervals());
    return candidate;
  }

  SimTime reserve_until(SimTime ready, SimDuration service) {
    return reserve(ready, service) + service;
  }

  /// Promise that no future reserve() will be ready before `watermark`, and
  /// drop every interval that is entirely in the retired past. An interval
  /// straddling the watermark is truncated to start at it. Monotonic: a
  /// watermark earlier than a previous one is a no-op.
  void release(SimTime watermark) {
    if (watermark <= watermark_) return;
    watermark_ = watermark;
    // Ends are in start order too, so the retired intervals are a prefix
    // of the calendar, which may reach across the gap.
    const auto retired = [watermark](const Interval& v) {
      return v.end <= watermark;
    };
    Interval* const iv = buf_.get();
    const std::size_t live_before = live_intervals();
    Interval* keep = std::partition_point(iv, iv + gs_, retired);
    Interval* out = iv;
    if (keep == iv + gs_) {
      keep = std::partition_point(iv + ge_, iv + cap_, retired);
    } else {
      out = shift(keep, iv + gs_, iv);
      keep = iv + ge_;
    }
    out = shift(keep, iv + cap_, out);
    gs_ = static_cast<std::size_t>(out - iv);
    ge_ = cap_;
    pruned_ += live_before - gs_;
    if (gs_ > 0) iv[0].start = std::max(iv[0].start, watermark);
  }

  SimDuration busy_time() const { return busy_; }
  std::uint64_t reservations() const { return reservations_; }
  SimTime horizon() const { return horizon_; }
  const std::string& name() const { return name_; }

  // --- interval accounting (prune/coalesce effectiveness) ---------------
  /// Busy intervals currently tracked.
  std::size_t live_intervals() const { return gs_ + (cap_ - ge_); }
  /// High-water mark of live_intervals() over the run.
  std::size_t peak_live_intervals() const { return peak_live_; }
  /// Intervals dropped by release().
  std::uint64_t pruned_intervals() const { return pruned_; }
  SimTime watermark() const { return watermark_; }

  double utilization(SimTime horizon) const {
    if (horizon == 0) return 0.0;
    const SimDuration b = busy_ < horizon ? busy_ : horizon;
    return static_cast<double>(b) / static_cast<double>(horizon);
  }

  void reset() {
    buf_.reset();
    cap_ = gs_ = ge_ = 0;
    busy_ = 0;
    reservations_ = 0;
    horizon_ = 0;
    watermark_ = 0;
    peak_live_ = 0;
    pruned_ = 0;
  }

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };

  /// Copies [first, last) to `out`; the ranges may overlap. Returns the
  /// end of the copy.
  static Interval* shift(const Interval* first, const Interval* last,
                         Interval* out) {
    const auto n = static_cast<std::size_t>(last - first);
    if (n > 0) std::memmove(out, first, n * sizeof(Interval));
    return out + n;
  }

  /// Puts [start, end) at the gap, merging with an abutting predecessor
  /// (before the gap) and/or successor (after it).
  void land(SimTime start, SimTime end) {
    Interval* const iv = buf_.get();
    const bool to_prev = gs_ > 0 && iv[gs_ - 1].end == start;
    const bool to_next = ge_ < cap_ && iv[ge_].start == end;
    if (to_prev) {
      iv[gs_ - 1].end = to_next ? iv[ge_++].end : end;
    } else if (to_next) {
      iv[ge_].start = start;
    } else {
      if (gs_ == ge_) grow();
      buf_[gs_++] = Interval{start, end};
    }
  }

  /// Grows the full array by 1.5x: the prefix stays at the front, the
  /// suffix moves to the back, and the new slots join the gap.
  void grow() {
    const std::size_t cap = std::max<std::size_t>(16, cap_ + cap_ / 2);
    std::unique_ptr<Interval[]> next(new Interval[cap]);
    shift(buf_.get(), buf_.get() + gs_, next.get());
    shift(buf_.get() + ge_, buf_.get() + cap_, next.get() + cap - (cap_ - ge_));
    ge_ += cap - cap_;
    cap_ = cap;
    buf_ = std::move(next);
  }

  std::string name_;
  // Intervals [0, gs_) and [ge_, cap_) of buf_, in start order, never
  // overlapping; [gs_, ge_) is the gap. Not a vector: gap slots are never
  // read, so a grown buffer leaves them unwritten rather than zeroed.
  std::unique_ptr<Interval[]> buf_;
  std::size_t cap_ = 0;
  std::size_t gs_ = 0;
  std::size_t ge_ = 0;
  SimDuration busy_ = 0;
  std::uint64_t reservations_ = 0;
  SimTime horizon_ = 0;
  SimTime watermark_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace ecoscale
