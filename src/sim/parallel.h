// Sharded discrete-event engine.
//
// ECOSCALE's hierarchy bounds communication distance: Workers inside a
// Compute Node interact at L0 latencies while anything that crosses a node
// boundary pays at least the interconnect's minimum inter-node latency,
// the engine's `lookahead` L. The ShardedSimulator gives every Compute Node
// (or any caller-chosen partition) its own event queue, a full `Simulator`
// with its slab, 4-ary heap and sorted-run backlog. A shard's actions reach
// another shard only through post(), which must deliver at least L after
// the poster's clock.
//
// Event key: every event is ordered by (time, origin shard, origin
// counter). The shard that creates an event, by scheduling it locally or
// by posting it, stamps it with its own id and the next value of its own
// counter. The origin sits in the top 16 bits of the Simulator's seq word,
// so the kernel's 128-bit (time, seq) compare is unchanged and a plain
// Simulator (origin 0) keeps its order. The key is fixed at send time, so a
// shard's event sequence does not depend on how the executor interleaves
// the shards: it is a function of the simulation alone.
//
// Executor: a tournament tree over the shards' next event times names the
// earliest shard a and the runner-up r (the earliest of the others). Shard a
// runs every event strictly before
//
//     H = min(next_r + L, run_until bound)
//
// and the tree is replayed for a and for each shard a posted to. The tree
// keeps each subtree's winner (not its loser) because posts lower shards
// other than the winner, which a loser tree cannot replay.
//
// Inbox: post() appends {time, key, action} to the destination's inbox and
// lowers the destination's next time; it does not touch the destination's
// heap. When a shard is picked it moves into its heap only the inbox
// messages below H, so messages for later runs do not deepen the heap it
// pops from.
//
// Safety: nothing can reach a below H once its run starts.
//   * Every other shard b holds no event before next_b >= next_r, so a
//     chain b starts reaches a no earlier than next_r + L >= H.
//   * A chain a starts itself (a posts at t, something posts back) is the
//     other way in. The echo cap closes it: a post at t caps a's running
//     bound at t + L, and any echo pays at least its last leg, L, after t.
//   * So every event a retires before H was in its heap or its inbox when
//     the run started, and a retires them in key order, the order one
//     global queue with the same key would give (tests/engine_oracle_test.cc
//     checks the engine against such a queue).
//
// Host threads: none. Splitting the engine across host threads never beat
// the one calling thread on wall-clock time (DESIGN.md §7.8 has the
// measurements). ShardedConfig::threads and threads_used() are documented
// no-ops, kept only until the end-to-end benchmark stops reading them.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Number of event-queue shards (typically one per Compute Node), at
  /// most 2^16 (the key's origin field).
  std::size_t shards = 1;
  /// Conservative lookahead: a lower bound on the sim-time distance of any
  /// cross-shard interaction. Derive it from the interconnect
  /// (Network::min_cross_latency / PgasSystem::shard_lookahead).
  SimDuration lookahead = nanoseconds(100);
  /// Ignored: the engine runs on the calling thread. Kept only until the
  /// end-to-end benchmark stops setting it.
  std::size_t threads = 1;
  /// Messages the inboxes hold without growing, split evenly over the
  /// shards: each shard reserves its share on its first incoming message,
  /// so a 6250-shard machine does not reserve 6250 full inboxes.
  std::size_t mailbox_capacity = 1024;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(ShardedConfig config);
  // Shards' actions capture `this`: the engine never moves.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  SimDuration lookahead() const { return config_.lookahead; }
  /// Always 1: the engine runs on the calling thread. Kept only until the
  /// end-to-end benchmark stops reading it.
  std::size_t threads_used() const { return 1; }

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
  /// t >= now(from) + lookahead(). The message is keyed (t, from, from's
  /// next counter) when it is posted.
  template <typename F>
  void post(std::size_t from, std::size_t to, SimTime t, F&& action) {
    post_message(from, to, t, InlineAction(std::forward<F>(action)));
  }

  /// Run until every shard queue and inbox is empty. An action's exception
  /// propagates as soon as it is thrown; its shard's later events stay
  /// pending for the next call.
  void run();

  /// Run until the shards drain OR the earliest pending event reaches
  /// `bound`: every event strictly before `bound` executes, events at or
  /// after it stay pending. Returns true when fully drained. Between calls
  /// nothing is running, so a controller may read any shard's
  /// deterministic state and schedule new events (including at times >=
  /// bound) before resuming — the epoch pause the runtime repartitioner is
  /// built on (DESIGN.md §7.11).
  bool run_until(SimTime bound);

  // --- accounting ---------------------------------------------------------
  /// Shard runs executed so far (one per executor pick). Kept under its
  /// round-era name until the end-to-end benchmark stops reading it.
  std::uint64_t windows() const { return runs_; }
  /// Shard runs, the same count as windows(): every pick runs its shard.
  /// Kept only until the end-to-end benchmark stops reading it.
  std::uint64_t shard_windows() const { return runs_; }
  /// Always 0: a picked shard always has an event below its bound. Kept
  /// only until the end-to-end benchmark stops reading it.
  std::uint64_t stalled_shard_windows() const { return 0; }
  /// Cross-shard messages posted.
  std::uint64_t messages() const { return posts_; }
  /// Always 0: no work runs anywhere but the calling thread. Kept only
  /// until the end-to-end benchmark stops reporting it.
  std::uint64_t steals() const { return 0; }
  /// Always 0: inboxes grow instead of spilling. Kept only until the
  /// end-to-end benchmark stops reporting it.
  std::uint64_t mailbox_spills() const { return 0; }
  /// Bytes of cross-shard buffering: the inboxes' reserved slots.
  std::size_t mailbox_state_bytes() const;
  /// Events retired across all shards.
  std::uint64_t events_processed() const;
  /// Frontier of simulated time: max over the shard clocks.
  SimTime now() const;
  /// Host time inside the executor loops of run()/run_until(), one clock
  /// pair per call: event execution plus picking, inbox admission and
  /// tree replays, not the per-call seeding.
  std::uint64_t shard_wall_time_ns() const { return loop_ns_; }

 private:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();
  /// running_shard_ outside a shard run.
  static constexpr std::size_t kNoShard =
      std::numeric_limits<std::size_t>::max();

  /// One cross-shard event in flight: deliver `action` at sim time `time`
  /// with event key `key`.
  struct Message {
    SimTime time = 0;
    std::uint64_t key = 0;
    InlineAction action;
  };

  struct Shard {
    Simulator sim;
    /// Messages posted here and not yet admitted into `sim`.
    std::vector<Message> inbox;
    /// Earliest inbox time (kNever when empty).
    SimTime inbox_min = kNever;
  };

  /// The non-template body of post(): validates the calling context, caps
  /// the running shard and appends the keyed message to the inbox.
  void post_message(std::size_t from, std::size_t to, SimTime t,
                    InlineAction action);

  /// Admit shard `s`'s inbox messages below `end` into its queue, run it
  /// before `end` with the post() calling-context guard armed, and replay
  /// its leaf.
  void run_shard(std::uint32_t s, SimTime end);

  // --- tournament tree ---------------------------------------------------
  /// Read every shard's next time and rebuild the tree (run_until entry:
  /// a controller may have scheduled anywhere).
  void seed_tree();
  /// Set shard `s`'s next time and replay its path to the root.
  void set_next(std::uint32_t s, SimTime t);
  /// The earliest next time among all shards but the winner.
  SimTime runner_up() const;
  /// The shard with the earlier next time (lower id on ties).
  std::uint32_t earlier(std::uint32_t a, std::uint32_t b) const {
    return next_[b] < next_[a] || (next_[b] == next_[a] && b < a) ? b : a;
  }

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The shard being run (kNoShard between runs); post() checks its
  /// `from` against it.
  std::size_t running_shard_ = kNoShard;
  /// Each shard's share of mailbox_capacity.
  std::size_t inbox_reserve_ = 1;
  /// Leaves: 2^k >= shard count (extra leaves stay at kNever).
  std::size_t leaves_ = 1;
  /// Next event time per leaf: min of the shard's queue and inbox.
  std::vector<SimTime> next_;
  /// Winner tree: tree_[k] is the winning leaf of node k's subtree, the
  /// root is node 1, and leaf i is node leaves_ + i.
  std::vector<std::uint32_t> tree_;

  std::uint64_t runs_ = 0;
  std::uint64_t posts_ = 0;
  std::uint64_t loop_ns_ = 0;
};

}  // namespace ecoscale
