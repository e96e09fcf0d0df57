// Conservative parallel discrete-event engine (sharded Simulator).
//
// ECOSCALE's hierarchy bounds communication distance: Workers inside a
// Compute Node interact at L0 latencies while anything that crosses a node
// boundary pays at least the interconnect's minimum inter-node latency.
// That bound makes node boundaries natural parallelization boundaries for
// the simulator — the same decomposition the runtime itself exploits. The
// ShardedSimulator gives every Compute Node (or any caller-chosen
// partition) its own event queue (a full `Simulator` with its slab, 4-ary
// heap and sorted-run backlog) and advances the shards concurrently inside
// synchronization rounds. There is one window schedule: each shard d
// starts its round with the horizon
//
//     end_d = min over s != d of next_s + L(s, d)
//
// where L(s, d) is a per-pair latency oracle (ShardedConfig::
// pair_lookahead; without one the uniform ShardedConfig::lookahead stands
// in for every pair), and the bound is *tightened while the window runs*:
// the moment d posts a message with delivery time t, its window is capped
// at t + dest_floor(d), dest_floor(d) = min over b != d of L(b, d) — the
// self-chain echo cap. Loosely-coupled shards run long windows while
// tightly-coupled ones stay conservative, and every shard (including self)
// contributes to its own bound the moment it can matter.
//
// Conservative correctness of the horizon, with a triangle-
// inequality oracle (any route/shortest-path latency is one — every
// cross-shard leg of a causal chain pays at least its pair latency):
//
//   * Chains starting on a peer: any future event on d seeded by a
//     currently-pending event on a shard s != d (time >= next_s) reaches
//     d no earlier than next_s + L(s, d) >= end_d.
//   * Chains starting on d itself (d posts to b, something eventually
//     posts back): the round-start horizon cannot see these — if d holds
//     the global floor and its peers are distant, end_d can exceed the
//     echo time next_d + L(d, b) + L(b, d). The echo cap closes exactly
//     this hole: the seeding post (delivery time t) stops d's own window
//     before t + dest_floor(d), and any echo of it arrives no earlier
//     (the return chain's last leg alone costs >= dest_floor(d)).
//   * Later rounds: messages posted during a round are merged at the
//     round boundary, before any horizon is recomputed, so while a chain
//     is in flight some shard always holds one of its events as pending
//     work and the peer bound above protects d for the rest of the
//     chain's life.
//
// Scheduling: the calling thread is the *leader*. It plans every round
// and decides whether the round runs narrow or wide. The plan publishes
// the round's pending shards (ascending) and computes every pending
// shard's horizon once, into a flat array both kinds of round read: with
// a dense oracle, a batched column minimum over the *pending* sources only
// (idle shards seed no chain), O(pending^2) per round. A round pays for
// threads only when it holds more work than the gate crossings cost, so
// the rule reads the work itself: a round is wide when an EWMA (alpha =
// 1/8) of events retired per round has reached kWideRoundEvents
// (parallel.cc). Events per round do not depend on the thread count, so
// the narrow/wide sequence is deterministic (wide_rounds()). A narrow
// round runs on the leader alone, exactly as a 1-thread engine runs every
// round: it walks the pending list, running every runnable window back to
// back, then merges the round's messages, crossing no gate. In a wide
// round, each shard has one owner thread: thread t runs exactly the
// pending shards in its contiguous range [t*S/T, (t+1)*S/T) — the same
// range it merges into and folds — so a shard's queue, next-event time and
// lane traffic stay on one core from round to round (the Compute Node as
// the partitioning boundary). Which thread owns a shard never affects
// results: the shard's trace lane and post() sequence counter belong to
// the shard, and the merge key orders messages independently of the lane
// they rode.
//
// Merging: each thread owns a contiguous destination range [lo, hi) of
// shards. After the execute gate of a wide round every thread gathers the
// messages bound for its range from every thread's drained lane, sorts
// them into canonical order and inserts them — one merge step, no extra
// gates. A narrow round has one lane, so it gathers every destination at
// once, and skips the sort for zero or one message.
//
// Narrow-round cost: a round costs work in proportion to the shards it
// touches, not to every shard. Only a shard that ran a window re-reads its
// next event time (its executor does, right after the window); a delivery
// can only lower the destination's time, so the merge takes a min instead
// of a re-read. Each thread then folds its range's partials (pending list,
// min next time, and the top-2 the collapsed horizon needs) from the flat
// next-time array, and the planner combines O(threads) partials. Each
// thread reads the clock once around all the windows it runs in a round —
// one clock pair per thread per round, not per window — and
// shard_wall_time_ns() is the sum of those spans. An action's exception
// bumps its thread's error tally; the planner scans the shards for it
// only when the folded tally is non-zero.
//
// Round gate: a wide round crosses three gates (plan, execute, fold), and
// a wide round may hold only a few hundred events — ~15 us of work on the
// engine mesh — so a crossing must cost about a microsecond, not a futex
// sleep and wake. The gate is a generation counter: the last
// arriver bumps it, and the others wait in three phases. They poll with
// `pause` for about as long as one yield costs, so a gate that opens that
// soon is seen at once (a longer spin slowed the threads still working in
// wide rounds). Then they poll with `yield` for a bounded ~100 us, so that
// when threads outnumber cores a descheduled last arriver gets the core
// instead of being starved by spinning peers. Then they park on
// `atomic::wait`, so a long round (or a long-blocked action) costs no CPU;
// the last arriver's `notify_all` wakes them.
//
// Workers (threads 1..N-1) start lazily, at the first wide round, and live
// as long as the engine. Between wide rounds — through narrow rounds and
// between run_until() segments — they wait at the plan gate, parked once
// the yield budget runs out; the leader releases them by crossing it.
// Runs that never go wide spawn no thread at all. The destructor releases
// the parked workers with a stop flag and joins them.
//
// Determinism: the merge is canonical — messages sort by (destination,
// time, source shard, source sequence), a total order — so destination
// tie-breaking sequence numbers are assigned in an order independent of
// thread count, lane assignment and completion order. Horizons are
// computed only from the published next-event times (deterministic
// simulation state), so the window schedule itself is thread-count
// invariant and a run with `threads = N` is byte-identical to
// `threads = 1`. Only lane *spill counts* — a wall-clock-side metric —
// vary with the thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/mailbox.h"
#include "sim/simulator.h"

namespace ecoscale {

/// Spin-then-park generation-counter barrier for wide rounds (see the file
/// comment; defined in parallel.cc).
class RoundGate;

struct ShardedConfig {
  /// Number of event-queue shards (typically one per Compute Node).
  std::size_t shards = 1;
  /// Conservative uniform lookahead: a lower bound on the sim-time
  /// distance of *any* cross-shard interaction. Derive it from the
  /// interconnect (Network::min_cross_latency / PgasSystem::
  /// shard_lookahead). It is the pair latency for every pair when no
  /// `pair_lookahead` is given, and the per-source floor seed: above
  /// `dense_pair_cap` without a `source_floor`, horizons use it as every
  /// shard's floor.
  SimDuration lookahead = nanoseconds(100);
  /// Threads a wide round may use, the caller included; 0 picks
  /// std::thread::hardware_concurrency(). The thread count never changes
  /// simulation results, only wall-clock time.
  std::size_t threads = 1;
  /// Ring capacity of each per-thread lane; bursts beyond it spill to a
  /// producer-owned overflow vector (correct but allocating).
  std::size_t mailbox_capacity = 1024;
  /// Optional per-pair latency oracle L(from, to), e.g. a captured
  /// Network::route_latency. Must be >= 1 for every pair and satisfy the
  /// triangle inequality L(a, c) <= L(a, b) + L(b, c) — true for any
  /// route/shortest-path latency (both strided and seeded-random triples
  /// are checked at construction, so a locally non-metric oracle fails
  /// loudly instead of yielding an unsafe horizon). Tightens both the
  /// horizons and the post() contract. Unset: the uniform `lookahead`
  /// stands in for every pair.
  std::function<SimDuration(std::size_t from, std::size_t to)> pair_lookahead;
  /// Optional per-source floor min over d != s of L(s, d) (e.g.
  /// Network::min_latency_from). Only consulted when `pair_lookahead` is
  /// set but the shard count exceeds `dense_pair_cap`; below the cap the
  /// floor is derived from the dense matrix. Construction sample-verifies
  /// floor(s) <= L(s, d) against the pair oracle — a floor that exceeds a
  /// real pair latency would silently over-advance shards.
  std::function<SimDuration(std::size_t from)> source_floor;
  /// Shard count up to which the pair oracle is materialized as a dense
  /// matrix (O(shards^2) construction + memory; horizons then take exact
  /// per-destination column minima). Above it the engine falls back to
  /// per-source floors — still per-shard horizons, O(shards) state — so a
  /// 6k-shard machine never pays a 36M-entry matrix.
  std::size_t dense_pair_cap = 512;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedConfig config);
  /// Releases and joins the worker threads, if a wide round started them.
  ~ShardedSimulator();
  // Workers hold `this`: the engine never moves.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  SimDuration lookahead() const { return config_.lookahead; }
  /// Threads a wide round uses (the configured count clamped to the shard
  /// count). Narrow rounds run on the calling thread alone.
  std::size_t threads_used() const { return threads_; }
  /// The conservative latency bound post() enforces for this pair — the
  /// dense matrix entry, the oracle, or the uniform lookahead.
  SimDuration pair_lookahead(std::size_t from, std::size_t to) const;

  /// Shard-local event queue. Schedule setup events here before run(), or
  /// same-shard events from inside one of the shard's own actions. NEVER
  /// touch another shard's queue from a running action — that is what
  /// post() is for.
  Simulator& shard(std::size_t s) {
    ECO_CHECK(s < shards_.size());
    return shards_[s]->sim;
  }

  /// Deliver `action` on shard `to` at absolute time `t`, called from
  /// inside an action currently executing on shard `from`. Requires
  /// t >= now(from) + pair_lookahead(from, to) — the conservative contract
  /// that keeps windows race-free. Messages become destination events at
  /// the next round boundary, merged canonically by (time, source shard,
  /// seq).
  template <typename F>
  void post(std::size_t from, std::size_t to, SimTime t, F&& action) {
    post_message(from, to, t, InlineAction(std::forward<F>(action)));
  }

  /// Run rounds until every shard queue and every lane is empty.
  /// Rethrows the first (lowest shard id) exception an action threw.
  void run();

  /// Run rounds until the shards drain OR the global next-event floor
  /// reaches `bound`: every event strictly before `bound` executes, events
  /// at or after it stay pending. Returns true when fully drained. Between
  /// calls nothing is running, so a single-threaded controller may read
  /// any shard's deterministic state and schedule new events (including at
  /// times >= bound) before resuming — the epoch pause the runtime
  /// repartitioner is built on (DESIGN.md §7.11). Horizons are the normal
  /// per-shard horizons clamped to `bound`, still a pure function of the
  /// published next-event times, so the window schedule (and therefore the
  /// simulation) stays byte-identical at any thread count.
  bool run_until(SimTime bound);

  // --- accounting ---------------------------------------------------------
  // The first five are deterministic (thread-count invariant); spills and
  // spawned workers vary with the thread count.
  /// Synchronization rounds executed so far.
  std::uint64_t windows() const { return windows_; }
  /// Rounds that ran wide, across threads_used() threads. The narrow/wide
  /// rule reads only events per round, so this is the same at any thread
  /// count above one, and 0 at one thread.
  std::uint64_t wide_rounds() const { return wide_rounds_; }
  /// (shard, round) pairs that retired at least one event — "windows
  /// executed". windows() * shard_count() minus this minus the stalls is
  /// the idle balance.
  std::uint64_t shard_windows() const { return shard_windows_; }
  /// (shard, round) pairs where a shard had a pending event but its
  /// horizon forbade running it — the barrier-stall numerator. Per-shard
  /// horizons exist to shrink this.
  std::uint64_t stalled_shard_windows() const { return stalled_windows_; }
  /// Cross-shard messages routed through the lanes (sum of the per-source
  /// send counters — identical whatever the lane layout).
  std::uint64_t messages() const;
  /// Always 0: every shard has a fixed owner thread, so no window runs
  /// anywhere else. Kept only until the end-to-end benchmark stops
  /// reporting it.
  std::uint64_t steals() const { return 0; }
  /// Pushes that overflowed a lane ring into its spill vector. Lane load
  /// depends on how many shards share a thread, so this varies with the
  /// thread count (simulation results never do).
  std::uint64_t mailbox_spills() const;
  /// Bytes of cross-shard buffering: the per-thread lane rings. O(threads ·
  /// capacity), where the per-pair scheme was O(shards² · capacity).
  std::size_t mailbox_state_bytes() const;
  /// Events retired across all shards.
  std::uint64_t events_processed() const;
  /// Frontier of simulated time: max over the shard clocks.
  SimTime now() const;
  /// Host time spent in window loops, summed over threads (CPU time, not
  /// elapsed time — threads run concurrently). Each thread reads the clock
  /// once around all the windows it runs in a round, so this covers event
  /// execution plus the per-window horizon checks, not the plan, merge or
  /// gates.
  std::uint64_t shard_wall_time_ns() const;
  /// Worker threads started so far: 0 until the first wide round, then
  /// threads_used() - 1 for the engine's lifetime.
  std::size_t spawned_workers() const { return workers_.size(); }

 private:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// What the leader does next (plan_round()'s verdict).
  enum class Round { kDone, kNarrow, kWide };

  struct Shard {
    Simulator sim;
    std::exception_ptr error;
    /// Messages this shard has posted — the `seq` of its next post and the
    /// third key of the canonical merge order. Owned by whichever thread
    /// is executing the shard's window: its owner in a wide round, the
    /// leader in a narrow one (never two at once).
    std::uint64_t post_seq = 0;
  };

  /// One gathered entry of the canonical merge: the full merge key plus
  /// where the message body lives (producing lane, index in that lane's
  /// drain scratch).
  struct MergeItem {
    SimTime time;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint64_t seq;
    std::uint32_t lane;
    std::uint32_t pos;
  };

  /// Per-worker-thread state: the thread's own slice of the round's
  /// pending list, the lane-drain scratch, the merge gather buffer for the
  /// thread's destination range, per-round tallies and the fold outputs
  /// the planner combines.
  struct alignas(64) WorkerSlot {
    // The owned pending shards, [claim_begin, claim_end) of pending_,
    // published by the planner; a wide round runs exactly these. A narrow
    // round walks pending_ directly.
    std::uint32_t claim_begin = 0;
    std::uint32_t claim_end = 0;
    // This thread's lane, drained after its windows each round; every
    // thread reads it in the merge step, only the owner writes it.
    std::vector<ShardMessage> msgs;
    // Messages bound for this thread's destination range, gathered from
    // every slot's `msgs` and sorted canonically.
    std::vector<MergeItem> gather;
    // Deterministic per-round tallies (zeroed by the planner after
    // folding) plus the wall-clock-side window time.
    std::uint64_t events = 0;  // events retired, for the wide/narrow rule
    std::uint64_t executed = 0;
    std::uint64_t stalled = 0;
    std::uint64_t errors = 0;  // windows that threw (planner folds it)
    std::uint64_t window_ns = 0;  // host time in window loops, cumulative
    // Fold outputs over the thread's contiguous shard range: its pending
    // shards in ascending order, min next event time, and top-2 (value,
    // runner-up, argmin) of next + source_floor for the collapsed horizon.
    std::vector<std::uint32_t> pending;
    SimTime part_floor = kNever;
    SimTime part_src1 = kNever;
    SimTime part_src2 = kNever;
    std::uint32_t part_src_arg = 0;
  };

  /// The non-template body of post(): validates the calling context and
  /// pushes the fully-tagged message into the executing thread's lane.
  void post_message(std::size_t from, std::size_t to, SimTime t,
                    InlineAction action);

  /// Execute shard `s`'s events strictly before `end` with the post()
  /// calling-context guard armed and `lanes_[lane]` as the outbox.
  /// Exceptions land in the shard's slot and bump the lane's error tally.
  void run_shard_window(std::size_t s, SimTime end, std::size_t lane);
  void rethrow_shard_error();

  // --- round phases (see parallel.cc for the gate schedule) -------------
  /// Reset per-run state: pre-reserve every merge/drain/pending buffer
  /// from the lane capacities (steady state allocates nothing) and seed
  /// the next-event times and fold outputs from every shard's queue.
  void prepare_run();
  /// Leader, between rounds: fold the per-thread partials (O(threads)),
  /// emit the previous round's trace span/counters, update the
  /// events-per-round EWMA, and publish the next round — its pending list,
  /// each thread's owned slice of it and the horizons — or report the
  /// segment over. Rethrows a shard's exception.
  Round plan_round();
  /// The per-shard execution horizon of every pending shard, into
  /// horizon_ (see file comment): one batched pass over the pending
  /// sources, read by narrow and wide rounds alike.
  void plan_horizons();
  /// Leader alone: every runnable window back to back, then one merge.
  void run_narrow_round();
  /// Leader's share of a wide round; starts the workers on first use.
  void run_wide_round();
  /// A worker's life: wait at the plan gate, run its share of the wide
  /// round, repeat until the destructor sets `stopping_`. Actions'
  /// exceptions are caught per window; anything else a phase throws is an
  /// engine invariant or allocation failure, and noexcept turns it into
  /// std::terminate instead of leaving the peers stuck at a gate.
  void worker_loop(std::size_t tid) noexcept;
  /// Run the window of pending shard pending_[i] on thread `tid` and
  /// re-read its next event time if its horizon allows, else count a
  /// stall.
  void run_window(std::size_t i, std::size_t tid);
  /// Move thread `tid`'s lane into its `msgs`, for the merge step.
  void drain_lane(std::size_t tid);
  /// Wide execute phase: run the windows of the thread's own pending
  /// shards, then drain its lane.
  void execute_wide(std::size_t tid);
  /// Wide merge phase for thread `tid`'s destination range.
  void merge_wide(std::size_t tid);
  /// Gather the messages bound for [lo, hi) from lanes [0, nlanes) into
  /// slot `tid`'s buffer, sort them canonically, insert them, and lower
  /// the destinations' next-event times.
  void insert_messages(std::size_t tid, std::size_t lo, std::size_t hi,
                       std::size_t nlanes);
  /// Rebuild slot `tid`'s pending list and partials from next_times_.
  void fold_range(std::size_t tid);

  ShardedConfig config_;
  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;  // one per worker thread
  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  // Per-pair latency state: dense matrix (shards <= dense_pair_cap with an
  // oracle; destination-major, entry [to * shards + from]), the per-source
  // floors used by the collapsed horizon, and the per-destination floors
  // min over b != d of L(b, d) — the echo-cap distance (dense: exact
  // column minima; collapsed: bounded below by the top-2 of the source
  // floors, since L(b, d) >= source_floor_[b]).
  std::vector<SimDuration> pair_matrix_;  // shards x shards, row = dest
  std::vector<SimDuration> source_floor_;
  std::vector<SimDuration> dest_floor_;
  // Published next event time per shard (kNever = idle). Read by the
  // planner; in the execute phase, d's owner re-reads it after d's window
  // (in a narrow round the leader owns every shard); in the merge phase,
  // the same owner lowers it for each delivery. The round gates order the
  // phases.
  std::vector<SimTime> next_times_;
  // The round's pending shards (ascending) and their horizons (valid for
  // pending shards only), written by the leader's plan and read by every
  // thread after the plan gate.
  std::vector<std::uint32_t> pending_;
  std::vector<SimTime> pending_next_;  // their next times at the plan
  std::vector<SimTime> horizon_;

  // Round plan, published by the leader and read by all workers after the
  // plan gate (plain fields; the gate provides the happens-before).
  SimTime plan_src1_ = kNever;  // top-2 of next_s + source_floor_[s]
  SimTime plan_src2_ = kNever;
  std::uint32_t plan_src_arg_ = 0;
  /// Exclusive stop bound of the current run_until() segment (kNever for
  /// a plain run()). Set by the leader before the segment's first plan,
  /// read inside via plan_round()/plan_horizons() only.
  SimTime run_bound_ = kNever;

  // Leader-only bookkeeping: the previous round's trace span is emitted
  // one plan later, when its min horizon has been folded; the same plan
  // feeds its event count to the EWMA. Valid only if a round ran since the
  // segment began.
  bool trace_prev_valid_ = false;
  SimTime trace_prev_floor_ = 0;
  /// Min horizon of the last planned round: its trace span's end.
  SimTime plan_min_horizon_ = kNever;
  /// Windows that threw and whose exception has not been rethrown yet
  /// (folded from the slots' tallies); the shards are scanned only if > 0.
  std::uint64_t pending_errors_ = 0;
  /// EWMA of events retired per round, in eighths (fixed point, so the
  /// wide/narrow sequence is exact integer arithmetic). Kept across
  /// run_until() segments.
  std::uint64_t events_ewma_x8_ = 0;

  std::uint64_t windows_ = 0;
  std::uint64_t shard_windows_ = 0;
  std::uint64_t stalled_windows_ = 0;
  std::uint64_t wide_rounds_ = 0;

  // Persistent worker pool (threads 1..N-1), started at the first wide
  // round; declared last, after everything the workers touch. `stopping_`
  // is written by the destructor before it crosses the plan gate, so the
  // gate orders it before the workers read it.
  std::unique_ptr<RoundGate> gate_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ecoscale
