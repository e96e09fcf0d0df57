// Per-thread lanes for cross-shard events.
//
// The sharded parallel engine used to give every ordered shard pair
// (from, to) its own mailbox — shards² heap-allocated rings, ~34 MB of
// pointerchasing state at 64 shards and unusable at the 6k+ shards a
// 100k-worker machine wants. Lanes consolidate that to one ring per
// *worker thread* (DESIGN.md §7.7): a shard's thread owns exactly one lane
// for the whole window, every message it posts — whatever the destination —
// goes into that lane, and the message carries its time, source and
// destination shard. Only the owning thread pushes, during its windows;
// after the round's windows (in a wide round, after its execute gate)
// every merging thread reads the lane in place (for_each), each moving
// out only the messages bound for its own destination range; the owner
// clears the lane before its next windows. The round gates order the
// three phases, so the indices are plain integers, not atomics.
//
// Push order is the merge order: a thread runs its shards in ascending
// order, so a lane holds ascending (source shard, send index), and the
// engine relies on for_each visiting messages in exactly push order.
//
// Capacity is fixed after construction. A burst larger than the ring spills
// into a producer-owned overflow vector: once a window overflows, every
// later push of that round goes to the overflow too, so FIFO order is
// preserved (ring first, then overflow). Spills are counted; steady state
// should be allocation-free with a well-sized ring. Note spill *counts*
// depend on how many shards share a lane and are therefore a
// wall-clock-side metric that varies with the thread count; simulation
// results never do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/inline_action.h"

namespace ecoscale {

/// One cross-shard event in flight: deliver `action` on shard `dst` at
/// absolute sim time `time`. `src` is the posting shard; lanes are shared
/// by many shard pairs, so every message is self-describing.
struct ShardMessage {
  SimTime time = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  InlineAction action;
};

class ShardLane {
 public:
  explicit ShardLane(std::size_t capacity = 1024) {
    std::size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  // Threads hold pointers to their lanes, so lanes are built once and
  // pinned.
  ShardLane(const ShardLane&) = delete;
  ShardLane& operator=(const ShardLane&) = delete;

  /// Producer side (the lane-owning thread only). The lane never orders,
  /// only buffers. Falls back to the overflow vector when the ring is full
  /// (or once anything is already waiting there, to keep FIFO order).
  template <typename F>
  void push(SimTime time, std::uint32_t src, std::uint32_t dst, F&& action) {
    if (!overflow_.empty() || tail_ - head_ > mask_) {
      ++overflow_spills_;
      overflow_.push_back(
          ShardMessage{time, src, dst, InlineAction(std::forward<F>(action))});
      return;
    }
    ShardMessage& slot = ring_[static_cast<std::size_t>(tail_) & mask_];
    slot.time = time;
    slot.src = src;
    slot.dst = dst;
    slot.action.emplace(std::forward<F>(action));
    ++tail_;
  }

  /// Visit every pending message in push order (ring, then overflow). The
  /// visitor may move a message's action out; the lane keeps the slot
  /// until clear(). Several threads may walk one lane at once between the
  /// producer's rounds, provided each touches only its own messages'
  /// actions.
  template <typename F>
  void for_each(F&& visit) {
    for (std::uint64_t i = head_; i != tail_; ++i) {
      visit(ring_[static_cast<std::size_t>(i) & mask_]);
    }
    for (ShardMessage& m : overflow_) visit(m);
  }

  /// Forget every pending message (the owner, before its next window). The
  /// engine has moved every action out by then; an action left in a ring
  /// slot is destroyed when the slot is reused or the lane dies.
  void clear() {
    head_ = tail_;
    overflow_.clear();
  }

  bool empty() const { return head_ == tail_ && overflow_.empty(); }

  /// Ring slots: pushes beyond this many per round spill.
  std::size_t capacity() const { return mask_ + 1; }
  /// Pushes that missed the ring and took the overflow vector.
  std::uint64_t overflow_spills() const { return overflow_spills_; }
  /// Bytes of buffering this lane holds (ring slots; the transient
  /// overflow vector is excluded — it is empty between windows).
  std::size_t state_bytes() const {
    return ring_.size() * sizeof(ShardMessage);
  }

 private:
  std::vector<ShardMessage> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;  // first pending message
  std::uint64_t tail_ = 0;  // one past the last
  std::uint64_t overflow_spills_ = 0;
  std::vector<ShardMessage> overflow_;
};

}  // namespace ecoscale
