// Conservative sharded discrete-event engine.
//
// ECOSCALE's hierarchy bounds communication distance: Workers inside a
// Compute Node interact at L0 latencies while anything that crosses a node
// boundary pays at least the interconnect's minimum inter-node latency.
// That bound makes node boundaries natural partition boundaries for the
// simulator — the same decomposition the runtime itself exploits. The
// ShardedSimulator gives every Compute Node (or any caller-chosen
// partition) its own event queue (a full `Simulator` with its slab, 4-ary
// heap and sorted-run backlog) and advances the shards window by window in
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
// Rounds: the engine runs on the calling thread, one round at a time. The
// plan lists the round's pending shards (ascending) and computes every
// pending shard's horizon once, into a flat array: with a dense oracle, a
// batched column minimum over the *pending* sources only (idle shards seed
// no chain), O(pending^2) per round. The round then runs every runnable
// window back to back, merges the round's messages and refolds the
// pending list.
//
// Round cost: a round costs work in proportion to the shards it touches,
// not to every shard. Only a shard that ran a window re-reads its next
// event time, right after the window; a delivery can only lower the
// destination's time, so the merge takes a min instead of a re-read. The
// fold then rebuilds the pending list and the partials the next plan reads
// (min next time, and the top-2 the collapsed horizon needs) from the flat
// next-time array. The clock is read once around all the windows of a
// round, and shard_wall_time_ns() is the sum of those spans. An action's
// exception bumps an error tally; the planner scans the shards for it only
// when the tally is non-zero.
//
// Merging: every message a window posts goes into one outbox, in push
// order, tagged with its time, source and destination. After the round's
// windows the merge walks the outbox in push order and inserts each
// message into its destination's queue. There is no sort and no copy.
//
// Determinism: push order is canonical. A round runs its pending shards in
// ascending order, so the outbox holds ascending (source shard, send
// index), and insert_messages() checks that the source never decreases. A
// destination queue orders events by (time, seq), and the merge gives each
// message the next seq in the order it inserts them: same-time messages
// run in (source shard, send index) order, the rest in time order, and
// every message of a round takes a seq above the events scheduled before
// the merge and below those scheduled after it, the order a (destination,
// time, source, send index) sort would give. Horizons are computed only
// from the published next-event times, which are deterministic simulation
// state.
//
// Host threads: none. Splitting rounds across host threads never beat
// this loop on wall-clock time (DESIGN.md §7.8 has the measurements).
// ShardedConfig::threads and threads_used() are documented no-ops, kept
// only until the end-to-end benchmark stops reading them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace ecoscale {

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
  /// Ignored: the engine runs on the calling thread. Kept only until the
  /// end-to-end benchmark stops setting it.
  std::size_t threads = 1;
  /// Messages the outbox holds without growing; pushes beyond it in one
  /// round are counted as spills (correct but allocating).
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
  // Shards' actions capture `this`: the engine never moves.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  SimDuration lookahead() const { return config_.lookahead; }
  /// Always 1: every round runs on the calling thread. Kept only until the
  /// end-to-end benchmark stops reading it.
  std::size_t threads_used() const { return 1; }
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
  /// that keeps windows independent. Messages become destination events at
  /// the next round boundary; same-time messages run in (source shard,
  /// send order).
  template <typename F>
  void post(std::size_t from, std::size_t to, SimTime t, F&& action) {
    post_message(from, to, t, InlineAction(std::forward<F>(action)));
  }

  /// Run rounds until every shard queue is empty.
  /// Rethrows the first (lowest shard id) exception an action threw.
  void run();

  /// Run rounds until the shards drain OR the global next-event floor
  /// reaches `bound`: every event strictly before `bound` executes, events
  /// at or after it stay pending. Returns true when fully drained. Between
  /// calls nothing is running, so a controller may read any shard's
  /// deterministic state and schedule new events (including at times >=
  /// bound) before resuming — the epoch pause the runtime repartitioner is
  /// built on (DESIGN.md §7.11). Horizons are the normal per-shard
  /// horizons clamped to `bound`, still a pure function of the published
  /// next-event times.
  bool run_until(SimTime bound);

  // --- accounting ---------------------------------------------------------
  /// Synchronization rounds executed so far.
  std::uint64_t windows() const { return windows_; }
  /// (shard, round) pairs that retired at least one event — "windows
  /// executed". windows() * shard_count() minus this minus the stalls is
  /// the idle balance.
  std::uint64_t shard_windows() const { return shard_windows_; }
  /// (shard, round) pairs where a shard had a pending event but its
  /// horizon forbade running it — the barrier-stall numerator. Per-shard
  /// horizons exist to shrink this.
  std::uint64_t stalled_shard_windows() const { return stalled_windows_; }
  /// Cross-shard messages posted (sum of the per-source send counters).
  std::uint64_t messages() const;
  /// Always 0: no window runs anywhere but the calling thread. Kept only
  /// until the end-to-end benchmark stops reporting it.
  std::uint64_t steals() const { return 0; }
  /// Pushes made while the outbox already held `mailbox_capacity`
  /// messages.
  std::uint64_t mailbox_spills() const { return outbox_spills_; }
  /// Bytes of cross-shard buffering: the outbox's reserved slots.
  std::size_t mailbox_state_bytes() const {
    return config_.mailbox_capacity * sizeof(Message);
  }
  /// Events retired across all shards.
  std::uint64_t events_processed() const;
  /// Frontier of simulated time: max over the shard clocks.
  SimTime now() const;
  /// Host time spent in window loops. The clock is read once around all
  /// the windows of a round, so this covers event execution plus the
  /// per-window horizon checks, not the plan or the merge.
  std::uint64_t shard_wall_time_ns() const { return window_ns_; }

 private:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  /// running_shard_ outside a window.
  static constexpr std::size_t kNoShard =
      std::numeric_limits<std::size_t>::max();

  struct Shard {
    Simulator sim;
    std::exception_ptr error;
    /// Messages this shard has posted (messages() sums them).
    std::uint64_t post_seq = 0;
  };

  /// One cross-shard event in flight: deliver `action` on shard `dst` at
  /// absolute sim time `time`. `src` is the posting shard.
  struct Message {
    SimTime time = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    InlineAction action;
  };

  /// The non-template body of post(): validates the calling context and
  /// appends the tagged message to the outbox.
  void post_message(std::size_t from, std::size_t to, SimTime t,
                    InlineAction action);

  /// Execute shard `s`'s events strictly before `end` with the post()
  /// calling-context guard armed. Exceptions land in the shard's slot and
  /// bump the error tally.
  void run_shard_window(std::size_t s, SimTime end);
  void rethrow_shard_error();

  // --- round phases --------------------------------------------------------
  /// Reset per-run state: seed the next-event times and the fold from
  /// every shard's queue.
  void prepare_run();
  /// Between rounds: emit the previous round's trace span/counters and
  /// publish the next round's horizons, or report the segment over
  /// (false). Rethrows a shard's exception.
  bool plan_round();
  /// The per-shard execution horizon of every pending shard, into
  /// horizon_ (see file comment): one batched pass over the pending
  /// sources.
  void plan_horizons();
  /// Run every runnable window back to back, then merge and refold.
  void run_round();
  /// Run the window of pending shard pending_[i] and re-read its next
  /// event time if its horizon allows, else count a stall.
  void run_window(std::size_t i);
  /// Insert the outbox's messages in push order, lower the destinations'
  /// next-event times and empty the outbox.
  void insert_messages();
  /// Rebuild the pending list and the plan's partials from next_times_.
  void fold();

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// This round's posts in push order (ascending source shard).
  std::vector<Message> outbox_;
  std::uint64_t outbox_spills_ = 0;
  /// The shard whose window is running (kNoShard between windows); post()
  /// checks its `from` against it.
  std::size_t running_shard_ = kNoShard;

  // Per-pair latency state: dense matrix (shards <= dense_pair_cap with an
  // oracle; destination-major, entry [to * shards + from]), the per-source
  // floors used by the collapsed horizon, and the per-destination floors
  // min over b != d of L(b, d) — the echo-cap distance (dense: exact
  // column minima; collapsed: bounded below by the top-2 of the source
  // floors, since L(b, d) >= source_floor_[b]).
  std::vector<SimDuration> pair_matrix_;  // shards x shards, row = dest
  std::vector<SimDuration> source_floor_;
  std::vector<SimDuration> dest_floor_;
  // Published next event time per shard (kNever = idle): re-read after a
  // shard's window, lowered by the merge for each delivery.
  std::vector<SimTime> next_times_;
  // The round's pending shards (ascending), their next times at the fold,
  // and their horizons (valid for pending shards only).
  std::vector<std::uint32_t> pending_;
  std::vector<SimTime> pending_next_;
  std::vector<SimTime> horizon_;

  // The fold's partials: min next time, and the top-2 (value, runner-up,
  // argmin) of next_s + source_floor_[s] for the collapsed horizon.
  SimTime plan_floor_ = kNever;
  SimTime plan_src1_ = kNever;
  SimTime plan_src2_ = kNever;
  std::uint32_t plan_src_arg_ = 0;
  /// Exclusive stop bound of the current run_until() segment (kNever for
  /// a plain run()), read by plan_round()/plan_horizons().
  SimTime run_bound_ = kNever;

  // The previous round's trace span is emitted one plan later, when its min
  // horizon is known. Valid only if a round ran since the segment began.
  bool trace_prev_valid_ = false;
  SimTime trace_prev_floor_ = 0;
  /// Min horizon of the last planned round: its trace span's end.
  SimTime plan_min_horizon_ = kNever;
  /// Windows that threw and whose exception has not been rethrown yet;
  /// the shards are scanned only if > 0.
  std::uint64_t pending_errors_ = 0;

  std::uint64_t windows_ = 0;
  std::uint64_t shard_windows_ = 0;
  std::uint64_t stalled_windows_ = 0;
  std::uint64_t window_ns_ = 0;
};

}  // namespace ecoscale
