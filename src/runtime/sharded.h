// Multi-node runtime on the sharded parallel simulation engine.
//
// ECOSCALE's hierarchy bounds communication distance (claim C1): Workers
// inside a Compute Node interact at L0 latencies, while anything crossing
// the node boundary pays at least one L1 traversal. ShardedRuntime turns
// that bound into wall-clock parallelism for the *simulator*: every
// Compute Node gets its own shard — a private Simulator, Machine
// (single-node UNIMEM domain, UNILOGIC pool, workers) and RuntimeSystem —
// and the shards advance concurrently inside conservative synchronization
// windows (see sim/parallel.h). Node-local work (PGAS accesses, fabric
// invocations, queue spills) never leaves its shard; the only cross-shard
// interaction is an explicit task forward, which rides an SPSC mailbox and
// is charged the inter-node interconnect's head latency — by construction
// at least the engine's lookahead, so no shard ever receives an event in
// its past.
//
// Inter-node latencies and the lookahead are derived from a Network over
// the node-level topology (Network::route_latency / min_cross_latency) —
// the same implicit-route oracle the machine uses, queried on demand
// rather than materialized as an N² matrix — not hand-tuned constants:
// changing link parameters automatically tightens or relaxes the window
// size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "runtime/machine.h"
#include "runtime/scheduler.h"
#include "sim/parallel.h"

namespace ecoscale {

struct ShardedRuntimeConfig {
  /// Compute Nodes — one engine shard (and one Machine) each.
  std::size_t nodes = 4;
  std::size_t workers_per_node = 4;
  /// Simulation threads (0 = hardware concurrency). Never changes results,
  /// only wall-clock time: --sim-threads N is byte-identical to 1.
  std::size_t threads = 1;
  std::size_t mailbox_capacity = 1024;
  /// Template for each node's machine; nodes is forced to 1 (the shard IS
  /// the node) and workers_per_node to the field above. The PGAS l1 link
  /// parameters double as the inter-node links of the forwarding network.
  MachineConfig machine;
  /// Shape of the inter-node interconnect. Empty (default): a flat
  /// crossbar, every pair two hops apart — the legacy layout. Non-empty:
  /// make_tree(radices) whose leaf count must equal `nodes` (e.g. {4, 2} =
  /// two chassis of four nodes); level-0 links carry the PGAS l1
  /// parameters and higher levels the costlier l2 parameters, so
  /// crossing a chassis costs more hops *and* more latency. This is the
  /// hierarchy the repartitioner's sibling-group diffusion runs over.
  std::vector<std::size_t> internode_radices;
  /// Scripted whole-node outage: every worker of `node` crashes at `at`
  /// and repairs `repair_after` later (must be > 0 — a permanent loss of
  /// a whole node would strand its queued tasks forever, since task
  /// failover is node-local). The node's heartbeat monitor still runs, so
  /// its believed-alive capacity collapses after detect_timeout — the
  /// signal the repartitioner's diffusion drains it by.
  struct NodeOutage {
    std::size_t node = 0;
    SimTime at = 0;
    SimDuration repair_after = 0;
  };
  std::vector<NodeOutage> node_outages;
  /// Per-node scheduler configuration.
  RuntimeConfig runtime;
};

class ShardedRuntime {
 public:
  explicit ShardedRuntime(ShardedRuntimeConfig config);

  std::size_t node_count() const { return nodes_.size(); }
  /// Conservative lookahead the engine windows run with: the minimum
  /// inter-node head latency of the node-level interconnect.
  SimDuration lookahead() const { return engine_->lookahead(); }
  /// Head latency of the inter-node route (what a forwarded task pays).
  /// Answered by the interconnect's implicit-route oracle — a mutation-free
  /// LCA walk (Network::route_latency), safe from concurrent shard threads
  /// — instead of a dense nodes² table.
  SimDuration inter_node_latency(std::size_t from, std::size_t to) const {
    ECO_CHECK(from < nodes_.size() && to < nodes_.size());
    return internode_->route_latency(from, to);
  }

  Machine& machine(std::size_t node) { return *nodes_[node].machine; }
  RuntimeSystem& runtime(std::size_t node) { return *nodes_[node].runtime; }
  Simulator& shard(std::size_t node) { return engine_->shard(node); }
  ShardedSimulator& engine() { return *engine_; }
  const ShardedRuntimeConfig& config() const { return config_; }
  /// The node-level interconnect oracle (latency/hop/tree queries only —
  /// nothing ever send()s on it). The repartitioner reads its implicit
  /// tree to build the diffusion hierarchy and its hop counts to weigh
  /// migration distance.
  Network& internode() { return *internode_; }

  /// Register a kernel (with its HLS variants) on every node's runtime.
  void register_kernel(const KernelIR& kernel,
                       std::vector<AcceleratorModule> variants);

  /// Queue `task` on its home node. Call before run(), or from inside an
  /// action already executing on that node's shard. task.home is a
  /// node-local coordinate (node field must be 0).
  void submit(std::size_t node, const Task& task);

  /// Ship `task` from node `from` (whose shard must be executing the
  /// calling action) to node `to`: it is released on the destination after
  /// the inter-node head latency, routed through the (from, to) mailbox
  /// and merged deterministically at the next window barrier.
  void post_task(std::size_t from, std::size_t to, Task task);

  /// Generic cross-node event, `extra_delay` after the inter-node latency.
  template <typename F>
  void post(std::size_t from, std::size_t to, SimDuration extra_delay,
            F&& action) {
    const SimTime at = engine_->shard(from).now() +
                       inter_node_latency(from, to) + extra_delay;
    engine_->post(from, to, at, std::forward<F>(action));
  }

  /// Epoch-driven control policy (the repartitioner): when installed with
  /// a nonzero period, run() advances the engine in run_until() segments
  /// of `period` and invokes the hook between them — single-threaded, with
  /// every shard paused at the same simulated instant, so the hook may
  /// read any node's deterministic state (obs counters, queue depths,
  /// believed-alive sets) and schedule follow-on events on any shard.
  /// Decisions taken in the hook are therefore a pure function of
  /// simulation state, never of thread interleaving: --sim-threads N
  /// stays byte-identical to 1. `at` is the epoch boundary k * period.
  using EpochHook = std::function<void(std::size_t epoch, SimTime at)>;
  void set_epoch_policy(SimDuration period, EpochHook hook) {
    ECO_CHECK_MSG((period > 0) == static_cast<bool>(hook),
                  "epoch policy needs a period and a hook (or neither)");
    epoch_period_ = period;
    epoch_hook_ = std::move(hook);
  }

  /// Run windows until every shard and mailbox drains; asserts every
  /// node's runtime retired all submitted tasks. With an epoch policy
  /// installed the drain interleaves the epoch hook at every period
  /// boundary (the hook is skipped once the workload has fully drained).
  void run();

  struct Stats {
    SimTime makespan = 0;          // max over node makespans
    Picojoules energy = 0.0;       // machine energy, all nodes
    std::uint64_t tasks = 0;       // task results across nodes
    std::uint64_t shed_tasks = 0;  // admission-control sheds, all nodes
    std::uint64_t cross_posts = 0; // mailbox messages (forwards + posts)
    std::uint64_t events = 0;      // simulator events, all shards
    std::uint64_t windows = 0;     // engine synchronization rounds
    std::uint64_t mailbox_spills = 0;
    /// Per-shard window executions / skips across all rounds (a skip is a
    /// shard whose horizon held no work — the barrier-stall metric).
    std::uint64_t shard_windows = 0;
    std::uint64_t stalled_shard_windows = 0;
    /// Always 0: every shard has a fixed owner thread (sim/parallel.h).
    /// Kept only until the end-to-end benchmark stops reporting it.
    std::uint64_t steals = 0;
  };
  /// Folded over nodes with a deterministic balanced reduction tree
  /// (common/reduce.h), so the energy sum's floating-point rounding is a
  /// pure function of the node count.
  Stats stats() const;

 private:
  struct Node {
    std::unique_ptr<Machine> machine;
    std::unique_ptr<RuntimeSystem> runtime;
  };

  ShardedRuntimeConfig config_;
  std::unique_ptr<Network> internode_;  // latency oracle, never send()s
  std::unique_ptr<ShardedSimulator> engine_;
  std::vector<Node> nodes_;
  SimDuration epoch_period_ = 0;
  EpochHook epoch_hook_;
};

}  // namespace ecoscale
