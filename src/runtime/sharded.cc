#include "runtime/sharded.h"

#include <algorithm>
#include <utility>

#include "common/reduce.h"
#include "interconnect/topology.h"

namespace ecoscale {

ShardedRuntime::ShardedRuntime(ShardedRuntimeConfig config)
    : config_(std::move(config)) {
  ECO_CHECK_MSG(config_.nodes >= 1, "need at least one node");
  const std::size_t n = config_.nodes;

  // Node-level interconnect: by default every Compute Node is one endpoint
  // behind a central switch, links carrying the machine's L1 (inter-node)
  // tier parameters; internode_radices instead builds the multi-tier tree
  // (level 0 = L1, higher levels = the costlier L2 parameters). Only
  // route/latency/tree queries are ever issued against it — the engine
  // charges forwards its head latency; it never send()s, so it stays
  // read-only during the parallel run.
  NetworkConfig nc;
  nc.level_params = {{0, config_.machine.pgas.l1_link}};
  if (config_.internode_radices.empty()) {
    internode_ = std::make_unique<Network>(
        make_crossbar(std::max<std::size_t>(n, 2)), nc);
  } else {
    std::size_t leaves = 1;
    for (const std::size_t r : config_.internode_radices) leaves *= r;
    ECO_CHECK_MSG(leaves == n,
                  "internode_radices leaf count must equal `nodes`");
    for (std::size_t l = 1; l < config_.internode_radices.size(); ++l) {
      nc.level_params[static_cast<int>(l)] = config_.machine.pgas.l2_link;
    }
    internode_ =
        std::make_unique<Network>(make_tree(config_.internode_radices), nc);
  }
  ECO_CHECK_MSG(internode_->implicit_routing(),
                "inter-node crossbar must route implicitly");

  ShardedConfig sc;
  sc.shards = n;
  sc.lookahead = std::max<SimDuration>(internode_->min_cross_latency(0), 1);
  sc.mailbox_capacity = config_.mailbox_capacity;
  engine_ = std::make_unique<ShardedSimulator>(sc);

  nodes_.reserve(n);
  for (std::size_t node = 0; node < n; ++node) {
    Node slot;
    MachineConfig mc = config_.machine;
    mc.nodes = 1;  // the shard is the node: its UNIMEM domain is private
    mc.workers_per_node = config_.workers_per_node;
    slot.machine = std::make_unique<Machine>(mc);
    RuntimeConfig rc = config_.runtime;
    for (const ShardedRuntimeConfig::NodeOutage& outage :
         config_.node_outages) {
      if (outage.node != node) continue;
      ECO_CHECK_MSG(outage.repair_after > 0,
                    "whole-node outages must repair (failover is "
                    "node-local; a permanent loss strands its queue)");
      rc.faults.enabled = true;
      for (std::size_t w = 0; w < config_.workers_per_node; ++w) {
        rc.faults.scripted_crashes.push_back(CrashEvent{
            w, outage.at, /*permanent=*/false, outage.repair_after});
      }
    }
    slot.runtime = std::make_unique<RuntimeSystem>(
        *slot.machine, engine_->shard(node), rc);
    nodes_.push_back(std::move(slot));
  }
}

void ShardedRuntime::register_kernel(const KernelIR& kernel,
                                     std::vector<AcceleratorModule> variants) {
  for (auto& node : nodes_) {
    node.runtime->register_kernel(kernel, variants);
  }
}

void ShardedRuntime::submit(std::size_t node, const Task& task) {
  ECO_CHECK(node < nodes_.size());
  ECO_CHECK_MSG(task.home.node == 0,
                "task.home is node-local; pick the node via `node`");
  nodes_[node].runtime->submit(task);
}

void ShardedRuntime::post_task(std::size_t from, std::size_t to, Task task) {
  ECO_CHECK(from < nodes_.size() && to < nodes_.size());
  ECO_CHECK_MSG(task.home.node == 0,
                "task.home is node-local on the destination");
  const SimTime arrive =
      engine_->shard(from).now() + inter_node_latency(from, to);
  task.release = arrive;
  RuntimeSystem* rt = nodes_[to].runtime.get();
  engine_->post(from, to, arrive, [rt, task] { rt->submit(task); });
}

void ShardedRuntime::run() {
  if (epoch_period_ > 0) {
    // Epoch-driven drain: advance all shards to the next period boundary,
    // pause, let the policy observe and act, resume. The hook runs on the
    // calling thread with no shard executing, so everything it reads is
    // deterministic simulation state and everything it schedules lands at
    // or after the boundary (DESIGN.md §7.11). A hook that schedules nothing after the workload
    // drains terminates the loop (run_until returns drained).
    std::size_t epoch = 0;
    for (;;) {
      ++epoch;
      const SimTime at = static_cast<SimTime>(epoch) * epoch_period_;
      if (engine_->run_until(at)) break;
      epoch_hook_(epoch, at);
    }
  } else {
    engine_->run();
  }
  // Each runtime's run() on a drained shard is a no-op that asserts no
  // task is still pending — the "all submitted work retired" postcondition.
  for (auto& node : nodes_) node.runtime->run();
}

ShardedRuntime::Stats ShardedRuntime::stats() const {
  // Balanced-tree fold over nodes (common/reduce.h): the energy sum is
  // floating point, and the tree shape — hence its rounding — depends only
  // on the node count.
  Stats s = reduce_tree<Stats>(
      nodes_.size(), Stats{},
      [&](std::size_t i) {
        Stats leaf;
        const RuntimeStats rs = nodes_[i].runtime->stats();
        leaf.makespan = rs.makespan;
        leaf.energy = nodes_[i].machine->total_energy();
        leaf.tasks = nodes_[i].runtime->results().size();
        leaf.shed_tasks = rs.shed_tasks;
        return leaf;
      },
      [](Stats a, Stats b) {
        a.makespan = std::max(a.makespan, b.makespan);
        a.energy += b.energy;
        a.tasks += b.tasks;
        a.shed_tasks += b.shed_tasks;
        return a;
      });
  s.cross_posts = engine_->messages();
  s.events = engine_->events_processed();
  s.windows = engine_->windows();
  s.mailbox_spills = engine_->mailbox_spills();
  s.shard_windows = engine_->shard_windows();
  s.stalled_shard_windows = engine_->stalled_shard_windows();
  s.steals = engine_->steals();
  return s;
}

}  // namespace ecoscale
