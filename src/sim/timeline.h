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
/// channel, and arrivals are far from monotone. The graph engine sweeps
/// its workers one after another, each from the iteration's barrier time,
/// so a link calendar sees one monotone stream per worker, each restarting
/// at the iteration start, and release() runs only at the barrier. On one
/// ecobench graph run (seed 1: 2.63M reservations over 112 calendars), 79%
/// of the reservations landed before the calendar's last interval, a
/// calendar held up to 13,081 live intervals, and 99.6% of reservations
/// started at their ready time. The calendars are sparse; the cost is in
/// finding the spot and inserting there.
///
/// Storage: a blocked sorted interval set. Intervals live in blocks of
/// kBlockIntervals, in start order; a block index keeps each block's first
/// start for a binary search, and a finger remembers the block of the last
/// lookup, which a monotone stream usually hits again. An insert moves at
/// most one block's tail (a single sorted vector moved ~1,300 intervals,
/// ~21 KB, per insert on that run). A full block first shifts intervals
/// into a neighbour with room and splits only between two full ones, so
/// blocks stay ~85% full. Emptied and released blocks go back to a pool.
///
/// Two mechanisms keep the interval set small over long runs (it used to
/// grow by one entry per reservation, turning reserve() into a scalability
/// cliff for bench_holistic-sized workloads):
///  - adjacent intervals are coalesced on insert, so back-to-back
///    reservations collapse into one interval instead of accumulating;
///  - release(watermark) prunes every interval that ends at or before the
///    watermark once the caller can promise that no future reservation will
///    be ready before it. Post-watermark reservations see exactly the same
///    start times as they would without pruning. Whole retired blocks go
///    back to the pool, so a warmed-up epoch loop never allocates.
class CalendarTimeline {
 public:
  /// Intervals per block: 1 KiB, so an insert moves at most a few cache
  /// lines, while 13k live intervals need only a few hundred index entries.
  static constexpr std::size_t kBlockIntervals = 64;

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
    Pos next{order_.size(), 0};
    if (order_.empty() || candidate >= last().start) {
      // Fast path: the reservation lands at or after everything tracked.
      if (!order_.empty() && last().end > candidate) candidate = last().end;
    } else {
      // First interval starting after `candidate` (it may be preceded by
      // one that still overlaps), then walk forward over overlaps.
      next = upper_bound(candidate);
      const Interval* prev = before(next);
      if (prev != nullptr && prev->end > candidate) candidate = prev->end;
      while (next.block < order_.size()) {
        const Interval& iv = at(next);
        if (iv.start >= candidate + service) break;
        candidate = std::max(candidate, iv.end);
        if (++next.index == block(next.block).size) {
          ++next.block;
          next.index = 0;
        }
      }
    }
    insert_coalesced(next, candidate, candidate + service);
    horizon_ = std::max(horizon_, candidate + service);
    if (live_ > peak_live_) peak_live_ = live_;
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
    std::size_t dropped = 0;  // whole blocks in the retired past
    while (dropped < order_.size()) {
      const Block& blk = block(dropped);
      if (blk.iv[blk.size - 1].end > watermark) break;
      pruned_ += blk.size;
      live_ -= blk.size;
      ++dropped;
    }
    const auto cut = static_cast<std::ptrdiff_t>(dropped);
    free_.insert(free_.end(), order_.begin(), order_.begin() + cut);
    order_.erase(order_.begin(), order_.begin() + cut);
    first_.erase(first_.begin(), first_.begin() + cut);
    finger_ = 0;
    if (order_.empty()) return;
    // The front block ends after the watermark: drop its retired prefix
    // and truncate a straddler to its live tail [watermark, end).
    Block& front = block(0);
    std::uint32_t n = 0;
    while (front.iv[n].end <= watermark) ++n;
    if (n > 0) {
      std::copy(front.iv + n, front.iv + front.size, front.iv);
      front.size -= n;
      pruned_ += n;
      live_ -= n;
    }
    front.iv[0].start = std::max(front.iv[0].start, watermark);
    first_[0] = front.iv[0].start;
  }

  SimDuration busy_time() const { return busy_; }
  std::uint64_t reservations() const { return reservations_; }
  SimTime horizon() const { return horizon_; }
  const std::string& name() const { return name_; }

  // --- interval accounting (prune/coalesce effectiveness) ---------------
  /// Busy intervals currently tracked.
  std::size_t live_intervals() const { return live_; }
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
    pool_.clear();
    order_.clear();
    first_.clear();
    free_.clear();
    finger_ = 0;
    live_ = 0;
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
  struct Block {
    std::uint32_t size = 0;  // never 0 while the block is in order_
    Interval iv[kBlockIntervals];
  };
  /// An interval's place: `index` within the block at `block` in order_.
  /// {order_.size(), 0} is the end.
  struct Pos {
    std::size_t block;
    std::size_t index;
  };

  Block& block(std::size_t b) { return *order_[b]; }
  const Block& block(std::size_t b) const { return *order_[b]; }
  Interval& at(Pos p) { return block(p.block).iv[p.index]; }
  const Interval& last() const {
    const Block& blk = block(order_.size() - 1);
    return blk.iv[blk.size - 1];
  }
  /// The interval just before `p`, or nullptr at the front.
  Interval* before(Pos p) {
    if (p.index > 0) return &block(p.block).iv[p.index - 1];
    if (p.block == 0) return nullptr;
    Block& prev = block(p.block - 1);
    return &prev.iv[prev.size - 1];
  }

  /// First interval with start > t. Requires a non-empty calendar.
  Pos upper_bound(SimTime t) {
    // The last block whose first start is <= t (block 0 if none is).
    std::size_t b = finger_;
    if (b >= first_.size() || first_[b] > t ||
        (b + 1 < first_.size() && first_[b + 1] <= t)) {
      const auto it = std::upper_bound(first_.begin(), first_.end(), t);
      b = it == first_.begin()
              ? 0
              : static_cast<std::size_t>(it - first_.begin()) - 1;
      finger_ = b;
    }
    const Block& blk = block(b);
    const Interval* it = std::upper_bound(
        blk.iv, blk.iv + blk.size, t,
        [](SimTime x, const Interval& iv) { return x < iv.start; });
    const auto i = static_cast<std::size_t>(it - blk.iv);
    return i == blk.size ? Pos{b + 1, 0} : Pos{b, i};
  }

  /// Insert [start, end), merging with an abutting predecessor and/or
  /// successor. `next` is the first interval with start >= end (the
  /// position reserve()'s forward walk stopped at).
  void insert_coalesced(Pos next, SimTime start, SimTime end) {
    const bool has_next = next.block < order_.size();
    Interval* prev = before(next);
    if (prev != nullptr && prev->end == start) {
      // Extend the predecessor in place; maybe bridge to the successor.
      if (has_next && at(next).start == end) {
        prev->end = at(next).end;
        erase(next);
      } else {
        prev->end = end;
      }
      return;
    }
    if (has_next && at(next).start == end) {
      // Extend the successor leftwards (order is preserved: start lies
      // strictly after the predecessor's end).
      at(next).start = start;
      if (next.index == 0) first_[next.block] = start;
      return;
    }
    insert(next, Interval{start, end});
  }

  void insert(Pos p, Interval v) {
    ++live_;
    // Between two blocks: the earlier one takes it if it has room.
    if (p.index == 0 && p.block > 0 &&
        block(p.block - 1).size < kBlockIntervals) {
      Block& prev = block(p.block - 1);
      prev.iv[prev.size++] = v;
      return;
    }
    if (p.block == order_.size()) {
      add_block(p.block);  // past a full last block
    } else if (block(p.block).size == kBlockIntervals) {
      p = make_room(p);
    }
    Block& blk = block(p.block);
    std::copy_backward(blk.iv + p.index, blk.iv + blk.size,
                       blk.iv + blk.size + 1);
    blk.iv[p.index] = v;
    ++blk.size;
    if (p.index == 0) first_[p.block] = v.start;
  }

  /// Frees a slot in the full block at `p` and returns where p's insert
  /// goes now. As in a B*-tree, intervals shift into a neighbour with room
  /// (half of that room), so blocks stay ~85% full. Only between two full
  /// neighbours does the block split, in half.
  /// p.index > 0 whenever the previous block has room, since insert()
  /// hands a block-front insert to that block; so a left shift always
  /// leaves room where the insert lands.
  Pos make_room(Pos p) {
    const std::size_t b = p.block;
    const bool next_full =
        b + 1 == order_.size() || block(b + 1).size == kBlockIntervals;
    if (next_full && b > 0 && block(b - 1).size < kBlockIntervals) {
      // The block's head moves to the end of the previous block.
      Block& lo = block(b - 1);
      Block& hi = block(b);
      const std::size_t moved = (kBlockIntervals - lo.size + 1) / 2;
      std::copy(hi.iv, hi.iv + moved, lo.iv + lo.size);
      std::copy(hi.iv + moved, hi.iv + kBlockIntervals, hi.iv);
      lo.size += static_cast<std::uint32_t>(moved);
      hi.size -= static_cast<std::uint32_t>(moved);
      first_[b] = hi.iv[0].start;
      return p.index < moved ? Pos{b - 1, lo.size - moved + p.index}
                             : Pos{b, p.index - moved};
    }
    // The block's tail moves to the front of the next block, or of a new
    // one.
    if (next_full) add_block(b + 1);
    Block& lo = block(b);
    Block& hi = block(b + 1);
    const std::size_t cut =
        kBlockIntervals - (kBlockIntervals - hi.size + 1) / 2;
    const std::size_t moved = kBlockIntervals - cut;
    std::copy_backward(hi.iv, hi.iv + hi.size, hi.iv + hi.size + moved);
    std::copy(lo.iv + cut, lo.iv + kBlockIntervals, hi.iv);
    hi.size += static_cast<std::uint32_t>(moved);
    lo.size = static_cast<std::uint32_t>(cut);
    first_[b + 1] = hi.iv[0].start;
    return p.index > cut ? Pos{b + 1, p.index - cut} : p;
  }

  void erase(Pos p) {
    --live_;
    Block& blk = block(p.block);
    std::copy(blk.iv + p.index + 1, blk.iv + blk.size, blk.iv + p.index);
    if (--blk.size == 0) {
      const auto pos = static_cast<std::ptrdiff_t>(p.block);
      free_.push_back(order_[p.block]);
      order_.erase(order_.begin() + pos);
      first_.erase(first_.begin() + pos);
    } else if (p.index == 0) {
      first_[p.block] = blk.iv[0].start;
    }
  }

  /// Put an empty block at position `b` of order_, reusing a pooled one.
  void add_block(std::size_t b) {
    Block* blk = nullptr;
    if (free_.empty()) {
      blk = pool_.emplace_back(std::make_unique<Block>()).get();
      // The index vectors never hold more blocks than the pool has, so
      // sized with it, they allocate only when the pool grows.
      order_.reserve(pool_.capacity());
      first_.reserve(pool_.capacity());
      free_.reserve(pool_.capacity());
    } else {
      blk = free_.back();
      free_.pop_back();
      blk->size = 0;
    }
    const auto pos = static_cast<std::ptrdiff_t>(b);
    order_.insert(order_.begin() + pos, blk);
    first_.insert(first_.begin() + pos, SimTime{0});
  }

  std::string name_;
  std::vector<std::unique_ptr<Block>> pool_;  // every block ever used
  std::vector<Block*> order_;   // the live blocks, in time order
  std::vector<SimTime> first_;  // first start of each live block
  std::vector<Block*> free_;    // pooled blocks not in order_
  std::size_t finger_ = 0;      // order_ position of the last lookup
  std::size_t live_ = 0;
  SimDuration busy_ = 0;
  std::uint64_t reservations_ = 0;
  SimTime horizon_ = 0;
  SimTime watermark_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace ecoscale
