// Hierarchical diffusion load balancing over the machine tree.
//
// The scheme of Mohanamuraly & Staffelbach (arXiv:2008.00832): instead of
// one flat global balance step, load diffuses between *siblings* at each
// tier of the interconnect hierarchy, top-down — first across the root's
// child subtrees (the expensive tier, so flows there are damped the same
// way as everywhere else but settle the coarse imbalance), then within
// each subtree across its children, down to individual Compute Nodes.
// Transfers therefore resolve as locally as the imbalance allows: a hot
// chassis first sheds to its sibling chassis as an aggregate, and only the
// net flow crosses the expensive upper links, while intra-chassis churn
// stays on cheap ones.
//
// The tiers come straight from the Network's implicit-tree arrays
// (tree_parent/tree_depth — the same per-vertex state implicit LCA routing
// uses), so the diffusion hierarchy is always the machine's real topology,
// never a hand-maintained copy.
//
// Everything here is a pure function of its inputs — fixed iteration
// order, no RNG, no wall clock — which is what lets the repartitioner
// promise byte-identical plans run after run (DESIGN.md §7.11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecoscale {
class Network;
}

namespace ecoscale::repart {

/// The sibling-group structure of the node-level tree. Tier t partitions
/// the node ids by their depth-t ancestor: tier 0 is always the single
/// root group, the last tier is always the singleton partition (every
/// node its own group — the leaves themselves). A two-chassis machine
/// {4, 2} has three tiers: {all 8}, {chassis A, chassis B}, {8 x 1}.
struct TreeLevels {
  std::size_t nodes = 0;
  /// group_of[t][n] — node n's group id within tier t. Group ids are
  /// dense, assigned in node order (deterministic).
  std::vector<std::vector<std::uint32_t>> group_of;
  /// Number of groups in each tier.
  std::vector<std::size_t> group_count;

  std::size_t tier_count() const { return group_of.size(); }

  /// Build from the interconnect's implicit tree (requires
  /// net.implicit_routing(), true for every ShardedRuntime interconnect).
  static TreeLevels from_network(Network& net, std::size_t nodes);
};

/// One epoch of hierarchical diffusion: returns the per-node target load.
/// At each tier top-down, a parent group's aggregate target splits over
/// its child groups by moving each child a fraction `alpha` from its
/// current share toward its capacity-proportional share (alpha = 1 jumps
/// straight to proportional; small alpha trickles, the damping that keeps
/// the balancer from thrashing on transient spikes). Load is conserved
/// exactly at every tier; a group whose aggregate capacity is zero (all
/// workers believed down) falls back to equal child shares.
std::vector<double> diffusion_targets(const TreeLevels& levels,
                                      const std::vector<double>& load,
                                      const std::vector<double>& capacity,
                                      double alpha);

}  // namespace ecoscale::repart
