// Discrete-event simulation kernel.
//
// A Simulator owns a monotonic picosecond clock and a 4-ary min-heap of
// pending events. Ties are broken by the event's key, its insertion
// sequence number, so a run is fully deterministic: the same seed and the
// same schedule order always produce the same trace. The key's top 16 bits
// name the event's origin (0 for a plain Simulator); the sharded engine
// gives each shard its own origin, so events order by (time, origin, origin
// counter) there (sim/parallel.h).
//
// Hot-path layout: actions are InlineAction (captures up to 64 bytes live
// inside the slot, larger ones spill to a recycled block pool) and are
// parked in a chunked slab of recycled slots; the heap itself orders only
// POD (time, seq, slot) entries. Sifting therefore moves 24-byte PODs
// instead of whole events, and because slab chunks never move, a retired
// action runs in place — retiring an event copies nothing and performs no
// heap allocation at all.
//
// Held root: the running event stays at the heap root while its action
// runs. The action's first schedule on this simulator replaces the root
// with one sift-down (replace-top), so the common "retire one event,
// schedule its one follow-up" costs one sift instead of a pop plus a push;
// an action that schedules nothing has its root dropped after it returns.
// While the root is held, idle() and pending_events() count the running
// event as gone, and the calls that read the queue front (next_event_time,
// step, run, run_until, run_before) fail an ECO_CHECK.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "obs/trace.h"
#include "sim/inline_action.h"

namespace ecoscale {

namespace detail {
/// Interned event names for the kernel's trace sites, resolved once.
struct SimTraceNames {
  CounterId run = CounterRegistry::intern("sim.run");
  CounterId step = CounterRegistry::intern("sim.step");
  CounterId pending = CounterRegistry::intern("sim.pending");
};
inline const SimTraceNames& sim_trace_names() {
  static const SimTraceNames names;
  return names;
}
}  // namespace detail

class Simulator {
 public:
  using Action = InlineAction;

  /// The key's origin field: its top kOriginBits bits. The low 48 bits
  /// count the origin's events in creation order.
  static constexpr int kOriginBits = 16;
  static constexpr int kOriginShift = 64 - kOriginBits;
  static constexpr std::uint64_t kCounterMask =
      (std::uint64_t{1} << kOriginShift) - 1;

  SimTime now() const { return now_; }

  /// Schedule an action at an absolute time (must not be in the past).
  /// Accepts any `void()` callable; the capture is constructed directly
  /// inside a recycled slab slot (no temporary, no heap allocation for
  /// captures up to InlineAction::kInlineBytes).
  template <typename F>
  void schedule_at(SimTime t, F&& action) {
    schedule_keyed(t, next_seq_++, std::forward<F>(action));
  }

  /// Schedule with a key stamped elsewhere (next_key() of the sending
  /// simulator): the sharded engine's inbox delivery.
  template <typename F>
  void schedule_keyed(SimTime t, std::uint64_t key, F&& action) {
    ECO_CHECK_MSG(t >= now_, "event scheduled in the past");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if ((slot_count_ >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Action[]>(kChunkSize));
      }
      slot = slot_count_++;
    }
    slot_ref(slot).emplace(std::forward<F>(action));
    if (held_) {
      held_ = false;
      sift_down(Entry{t, key, slot});
    } else {
      heap_push(Entry{t, key, slot});
    }
  }

  /// Stamp every event this simulator creates from now on with `origin`.
  /// Call before anything is scheduled.
  void set_origin(std::uint16_t origin) {
    ECO_CHECK_MSG(next_seq_ == 0, "set_origin() after scheduling");
    next_seq_ = std::uint64_t{origin} << kOriginShift;
  }

  /// The next key of this simulator's origin, for an event it sends to
  /// another simulator (schedule_keyed there). Local schedules and sends
  /// share the counter, so the key records the creation order.
  std::uint64_t next_key() {
    ECO_CHECK_MSG((next_seq_ & kCounterMask) != kCounterMask,
                  "48-bit event counter exhausted");
    return next_seq_++;
  }

  /// Schedule an action `delay` after the current time.
  template <typename F>
  void schedule_after(SimDuration delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Pre-size the event storage so steady-state scheduling never
  /// reallocates (it stops reallocating on its own once the in-flight
  /// event count reaches its steady state).
  void reserve_events(std::size_t n) {
    heap_.reserve(n);
    free_slots_.reserve(n);
    const std::size_t want = (n + kChunkSize - 1) >> kChunkShift;
    chunks_.reserve(want);
    while (chunks_.size() < want) {
      chunks_.push_back(std::make_unique<Action[]>(kChunkSize));
    }
  }

  /// Run until the event queue is empty.
  void run() {
    check_not_running();
    const auto t0 = Clock::now();
    ECO_TRACE_BEGIN(obs::Cat::kSim, detail::sim_trace_names().run,
                    (obs::Lane{obs::kSimPid, trace_tid_}), now_);
    retiring_on_throw([this] {
      while (step_untimed()) {
      }
    });
    ECO_TRACE_END(obs::Cat::kSim, detail::sim_trace_names().run,
                  (obs::Lane{obs::kSimPid, trace_tid_}), now_);
    wall_ns_ += elapsed_ns(t0);
  }

  /// Run while events exist and their time is <= `t`; then advance the
  /// clock to `t`. Returns true if events remain beyond `t`.
  bool run_until(SimTime t) {
    check_not_running();
    const auto t0 = Clock::now();
    retiring_on_throw([this, t] {
      while (has_due(t)) step_untimed();
    });
    wall_ns_ += elapsed_ns(t0);
    now_ = std::max(now_, t);
    return !idle();
  }

  /// Run every event with time strictly before `end` and stop, leaving the
  /// clock at the last retired event (NOT at `end`). This is the shard-run
  /// primitive of the sharded engine: events delivered from other shards
  /// at exactly the run's bound must still be schedulable, so the clock
  /// never advances past what actually executed. Untimed: the engine times
  /// its whole executor loop with one clock pair instead
  /// (ShardedSimulator::shard_wall_time_ns), so wall_time_ns() excludes it.
  void run_before(SimTime end) {
    check_not_running();
    run_bound_ = end;
    retiring_on_throw([this] {
      while (has_due_before(run_bound_)) step_untimed();
    });
  }

  /// Tighten the bound of the run_before() call currently executing this
  /// action (no-op unless `end` is below it; reset by the next
  /// run_before). The sharded engine calls this from inside a posting
  /// action: once a shard emits a cross-shard message it must stop before
  /// the earliest time an echo of that message could return (parallel.h,
  /// "echo cap").
  void tighten_run_bound(SimTime end) {
    run_bound_ = std::min(run_bound_, end);
  }

  /// Timestamp of the earliest pending event. Precondition: !idle().
  SimTime next_event_time() const {
    check_not_running();
    const Entry* e = peek_min();
    ECO_CHECK_MSG(e != nullptr, "next_event_time() on an idle simulator");
    return e->time;
  }

  /// Execute the single earliest event. Returns false if none is pending.
  bool step() {
    check_not_running();
    const auto t0 = Clock::now();
    bool fired = false;
    retiring_on_throw([this, &fired] { fired = step_untimed(); });
    wall_ns_ += elapsed_ns(t0);
    return fired;
  }

  /// Inside a running action the running event already counts as gone.
  bool idle() const { return heap_pending() == 0 && sorted_.empty(); }

  /// Trace lane (tid under the kSimPid process) this kernel's spans land
  /// in. The default 0 is the classic single-engine lane; the sharded
  /// engine gives every shard its own lane so a Chrome trace shows one
  /// timeline row per Compute Node shard.
  void set_trace_lane(std::uint16_t tid) { trace_tid_ = tid; }
  std::uint16_t trace_lane() const { return trace_tid_; }
  std::size_t pending_events() const {
    return heap_pending() + sorted_.size();
  }
  std::uint64_t events_processed() const { return events_processed_; }

  // --- wall-clock throughput --------------------------------------------
  /// Wall time spent retiring events inside run()/run_until()/step()
  /// (run_before() is untimed).
  std::uint64_t wall_time_ns() const { return wall_ns_; }
  /// Events retired per wall-clock second across all run calls so far
  /// (0 before any event has been processed).
  double events_per_second() const {
    if (wall_ns_ == 0 || events_processed_ == 0) return 0.0;
    return static_cast<double>(events_processed_) * 1e9 /
           static_cast<double>(wall_ns_);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const Entry& a, const Entry& b) {
#ifdef __SIZEOF_INT128__
    // One branchless 128-bit compare of (time, seq) instead of two
    // dependent branches; sift loops live and die by this comparator.
    return key(a) < key(b);
#else
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
#endif
  }

#ifdef __SIZEOF_INT128__
  static unsigned __int128 key(const Entry& e) {
    return (static_cast<unsigned __int128>(e.time) << 64) | e.seq;
  }
#endif

  // Index of the earliest of the four children h[first..first+3], as a
  // two-round tournament of selects: the winners of (c0, c1) and (c2, c3)
  // meet in a final. The outcome of a compare feeds a conditional move,
  // never a branch the predictor would have to guess.
  static std::size_t min_of_four(const Entry* h, std::size_t first) {
    const Entry* c = h + first;
#ifdef __SIZEOF_INT128__
    const auto k0 = key(c[0]);
    const auto k1 = key(c[1]);
    const auto k2 = key(c[2]);
    const auto k3 = key(c[3]);
    const bool low = k1 < k0;
    const bool high = k3 < k2;
    const auto ka = low ? k1 : k0;
    const auto kb = high ? k3 : k2;
    const std::size_t a = first + low;
    const std::size_t b = first + 2 + high;
    // A mask, not `kb < ka ? b : a`: GCC -O2 compiles that to a branch.
    const std::size_t take_b = -static_cast<std::size_t>(kb < ka);
    return a ^ ((a ^ b) & take_b);
#else
    const std::size_t a = first + earlier(c[1], c[0]);
    const std::size_t b = first + 2 + earlier(c[3], c[2]);
    return earlier(h[b], h[a]) ? b : a;
#endif
  }

  // 4-ary min-heap: half the sift depth of a binary heap and the four
  // children share cache lines, which is where a discrete-event core
  // spends its time once events are allocation-free.
  void heap_push(Entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  static constexpr std::size_t kFloydPopThreshold = 4096;
  static constexpr std::size_t kSortRunThreshold = 8192;

  // Place `e` in the root hole and restore heap order over the current
  // entries. Dropping the root (the tail moves in) and replace-top (a new
  // entry moves in) both end here.
  void sift_down(Entry e) {
    Entry* h = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    if (n <= kFloydPopThreshold) {
      // Floyd: sink the hole to a leaf choosing the min child only (no
      // per-level comparison with `e`), then sift `e` back up. Wins while
      // the heap is cache-resident; on deep cold heaps the up-pass
      // re-touches evicted lines, so large heaps use the classic
      // early-exit sift instead.
      for (;;) {
        const std::size_t first = 4 * i + 1;
        std::size_t best;
        if (first + 4 <= n) {
          best = min_of_four(h, first);
        } else if (first < n) {
          best = first;  // partial last family
          for (std::size_t c = first + 1; c < n; ++c) {
            if (earlier(h[c], h[best])) best = c;
          }
        } else {
          break;
        }
        h[i] = h[best];
        i = best;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!earlier(e, h[parent])) break;
        h[i] = h[parent];
        i = parent;
      }
    } else {
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (earlier(h[c], h[best])) best = c;
        }
        if (!earlier(h[best], e)) break;
        h[i] = h[best];
        i = best;
      }
    }
    h[i] = e;
  }

  // Remove the held root: the tail takes its place.
  void drop_root() {
    held_ = false;
    const Entry tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(tail);
  }

  std::size_t heap_pending() const { return heap_.size() - (held_ ? 1 : 0); }

  void check_not_running() const {
    ECO_CHECK_MSG(running_slot_ == kNoSlot,
                  "queue read or run from inside a running action");
  }

  bool has_due(SimTime t) const {
    if (!heap_.empty() && heap_.front().time <= t) return true;
    return !sorted_.empty() && sorted_.back().time <= t;
  }

  bool has_due_before(SimTime t) const {
    if (!heap_.empty() && heap_.front().time < t) return true;
    return !sorted_.empty() && sorted_.back().time < t;
  }

  // When a large backlog has accumulated in the heap, convert it once into
  // a descending sorted run: popping the minimum becomes pop_back, and one
  // std::sort of POD entries beats draining the same entries through
  // O(log n) sifts. New arrivals keep landing in the (now small) heap;
  // take_min takes the smaller of the two fronts, so execution order is
  // identical to a single priority queue.
  void maybe_convert_backlog() {
    if (heap_.size() < kSortRunThreshold || heap_.size() < sorted_.size() / 4) {
      return;
    }
    sorted_.insert(sorted_.end(), heap_.begin(), heap_.end());
    heap_.clear();
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Entry& a, const Entry& b) { return earlier(b, a); });
  }

  // The earliest pending entry. A backlog minimum leaves the sorted run
  // at once; a heap minimum stays at the root, held, until the running
  // action's first schedule replaces it or drop_root() removes it.
  Entry take_min() {
    if (!sorted_.empty() &&
        (heap_.empty() || earlier(sorted_.back(), heap_.front()))) {
      const Entry e = sorted_.back();
      sorted_.pop_back();
      return e;
    }
    held_ = true;
    return heap_.front();
  }

  const Entry* peek_min() const {
    const Entry* h = heap_.empty() ? nullptr : &heap_.front();
    const Entry* s = sorted_.empty() ? nullptr : &sorted_.back();
    if (h == nullptr) return s;
    if (s == nullptr) return h;
    return earlier(*s, *h) ? s : h;
  }

  bool step_untimed() {
    if (heap_.empty() && sorted_.empty()) return false;
    maybe_convert_backlog();
    // The action runs in place in its slab slot: chunks are
    // pointer-stable, so scheduling from inside the action (which may grow
    // the slab) cannot move the running capture. The slot is only
    // returned to the free list after the capture is destroyed, so a
    // nested schedule_at can never overwrite it mid-execution.
    const Entry entry = take_min();
    Action& action = slot_ref(entry.slot);
    // Dispatch span: the clock advance this event retired, with the queue
    // depth it left behind — the timeline view of where sim-time goes.
    ECO_TRACE_SPAN(obs::Cat::kSim, detail::sim_trace_names().step,
                   (obs::Lane{obs::kSimPid, trace_tid_}), now_, entry.time,
                   pending_events());
    ECO_TRACE_COUNTER(obs::Cat::kSim, detail::sim_trace_names().pending,
                      (obs::Lane{obs::kSimPid, trace_tid_}), entry.time,
                      pending_events());
    now_ = entry.time;
    ++events_processed_;
    running_slot_ = entry.slot;
    action();
    running_slot_ = kNoSlot;
    if (held_) drop_root();
    action.reset();
    free_slots_.push_back(entry.slot);
    return true;
  }

  /// Runs one of the run loops. If an action throws, a still-held root is
  /// dropped, and the action's capture is destroyed and its slot freed,
  /// before the exception propagates; the catch sits around the whole
  /// loop, not around each event, so the per-event path only records
  /// which slot is running.
  template <typename Loop>
  void retiring_on_throw(Loop&& loop) {
    try {
      loop();
    } catch (...) {
      if (held_) drop_root();
      if (running_slot_ != kNoSlot) {
        slot_ref(running_slot_).reset();
        free_slots_.push_back(running_slot_);
        running_slot_ = kNoSlot;
      }
      throw;
    }
  }

  static std::uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
  }

  // Parked actions live in fixed-size chunks so their addresses never
  // change as the slab grows.
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  Action& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  SimTime now_ = 0;
  SimTime run_bound_ = 0;  // live bound of the run_before() in flight
  std::uint32_t running_slot_ = kNoSlot;  // slot of the action in flight
  bool held_ = false;  // heap_[0] is the running event (file comment)
  std::uint16_t trace_tid_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::vector<Entry> heap_;             // POD ordering entries only
  std::vector<Entry> sorted_;           // descending; back() is the minimum
  std::vector<std::unique_ptr<Action[]>> chunks_;  // pointer-stable slab
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace ecoscale
