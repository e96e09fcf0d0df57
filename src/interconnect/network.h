// Contention-aware network model over a Topology.
//
// Transfers are routed over the shortest path (breadth-first, deterministic
// tie-break by link id). Timing uses a cut-through approximation: the head
// of the packet pays each traversed link's hop latency, while serialization
// time is paid once per link and reserved on the link's timeline, so
// congestion lengthens transfers. Energy: pJ/byte/hop plus per-packet switch
// energy, with per-level parameters (higher levels are longer and costlier).
//
// Routing state is hierarchical/implicit by default (DESIGN.md §7.7): when
// the topology is a tree — every ECOSCALE machine shape (worker/node/chassis
// hierarchies, crossbars, buses) is one — routes are *computed* from each
// vertex's tree position by a lowest-common-ancestor walk instead of being
// materialized in a dense src·E+dst table. A 100k-endpoint machine then
// carries ~16 bytes of routing state per vertex instead of an 8-byte
// RouteRef per endpoint *pair* (80 GB at 100k). Non-tree topologies
// (dragonfly, mesh) keep the legacy dense table, as does
// RoutingMode::kDenseTable — the equivalence oracle for tests and an opt-in
// cache for small machines.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/energy.h"
#include "common/units.h"
#include "interconnect/packet.h"
#include "interconnect/topology.h"
#include "sim/timeline.h"

namespace ecoscale {

struct LinkParams {
  SimDuration hop_latency = nanoseconds(25);
  Bandwidth bandwidth = Bandwidth::from_gib_per_s(8.0);
  double pj_per_byte = 1.0;
  double pj_per_packet = 5.0;  // switch/arbiter energy
};

/// How routes are resolved (see the header comment).
enum class RoutingMode {
  /// Implicit LCA routing when the topology is a tree, dense otherwise
  /// (implicit_routing() says which).
  kAuto,
  /// Legacy dense src·E+dst table with BFS precompute, even for trees.
  kDenseTable,
};

struct NetworkConfig {
  /// Per-level link parameters; a level not present falls back to level 0
  /// (which must be present).
  std::map<int, LinkParams> level_params = {{0, LinkParams{}}};

  /// If true, all links share one serialization timeline (a bus).
  bool shared_medium = false;

  RoutingMode routing = RoutingMode::kAuto;
};

struct TransferResult {
  SimTime arrival = 0;       // when the last byte reaches the destination
  int hops = 0;              // links traversed
  Picojoules energy = 0.0;
};

class Network {
 public:
  Network(Topology topology, NetworkConfig config);

  std::size_t endpoint_count() const { return topo_.endpoint_count(); }

  /// Route `packet` from endpoint index src to endpoint index dst, first
  /// byte ready at `ready`. Endpoint indices are positions in the
  /// topology's endpoint list, not raw vertex ids.
  TransferResult send(std::size_t src, std::size_t dst, const Packet& packet,
                      SimTime ready);

  /// Hop count of the route between two endpoints. Pure (thread-safe) under
  /// implicit routing.
  int hop_count(std::size_t src, std::size_t dst);

  /// Pure head latency (sum of per-hop latencies, no serialization or
  /// queueing) of the route between two endpoints. A lower bound on any
  /// send() between the pair, whatever the congestion or degradation
  /// state — degradation throttles bandwidth, never hop latency.
  /// Under implicit routing this is a mutation-free LCA walk, safe to call
  /// from concurrent shard threads; under the dense table it lazily
  /// materializes the route (call min_cross_latency() first to pre-warm).
  SimDuration route_latency(std::size_t src, std::size_t dst);

  /// Minimum route_latency() over all endpoint pairs whose route traverses
  /// at least one link of level >= `min_level` — i.e. the soonest any
  /// message crossing that tier of the hierarchy can possibly arrive.
  /// This is the conservative lookahead of the sharded parallel simulation
  /// engine: shard per Compute Node, pass min_cross_latency(1), and no
  /// cross-shard event can ever land inside the lookahead.
  /// Returns 0 if no route crosses `min_level` (single-partition topology).
  /// Implicit routing computes it analytically (an O(V) two-pass tree DP
  /// over per-level link latencies) instead of enumerating endpoint pairs;
  /// the dense path keeps the pairwise sweep and, as a side effect,
  /// materializes every route so later table reads are safe from
  /// concurrent shard threads. Cached per level either way.
  SimDuration min_cross_latency(int min_level = 0);

  /// Maximum hop count over all endpoint pairs (paper §2: tree depth adds
  /// one hop per level). Implicit routing derives it from the level
  /// structure — the deepest-LCA endpoint pair, an O(V) tree DP — instead
  /// of one BFS per source (quadratic at 10k+ endpoints).
  int diameter();

  // --- accounting -------------------------------------------------------
  const EnergyMeter& energy() const { return energy_; }
  std::uint64_t total_packets() const { return packets_; }
  /// Sum over links of bytes carried: the "byte-hops" traffic metric.
  std::uint64_t byte_hops() const { return byte_hops_; }

  /// True when routes are computed implicitly from the topology tree.
  bool implicit_routing() const { return tree_routing_; }
  /// Sentinel returned by tree_parent() at the root.
  static constexpr VertexId kNoParent = 0xFFFFFFFFu;
  /// Implicit-tree position accessors (require implicit_routing()): the
  /// vertex behind endpoint index `i`, its parent vertex (kNoParent at the
  /// root) and its depth (root = 0). Pure reads of the per-vertex tree
  /// arrays, safe from concurrent shard threads. The repartitioner's
  /// hierarchical diffusion rebuilds its sibling groups per tier from
  /// exactly these (src/repart/diffusion.h).
  VertexId endpoint_vertex(std::size_t i) const { return topo_.endpoint(i); }
  VertexId tree_parent(VertexId v) const {
    ECO_CHECK(tree_routing_ && v < parent_.size());
    return parent_[v];
  }
  std::size_t tree_depth(VertexId v) const {
    ECO_CHECK(tree_routing_ && v < depth_.size());
    return depth_[v];
  }
  /// Logical bytes of routing state: the per-vertex tree arrays under
  /// implicit routing, or the dense RouteRef table + path arena + BFS
  /// parent caches under the dense table. Size-based (not capacity), so
  /// the number is deterministic and bench_scale can gate it per endpoint.
  std::size_t route_state_bytes() const;

  // --- fault injection --------------------------------------------------
  /// Degrade (or restore, factor = 1.0) every link of `level`: effective
  /// serialization time is scaled by `factor` (>= 1.0), modelling a lane
  /// failure or persistent ECC retraining on that tier of the tree. Hop
  /// latency is unchanged — degradation throttles bandwidth, not distance.
  void set_level_degradation(int level, double factor);
  double level_degradation(int level) const {
    const auto l = static_cast<std::size_t>(level);
    return l < level_factor_.size() ? level_factor_[l] : 1.0;
  }

  /// Promise that no future send() departs before `watermark`: prunes every
  /// link calendar's retired intervals (see CalendarTimeline::release).
  void release(SimTime watermark);
  /// Peak live-interval count over all link calendars (prune health).
  std::size_t peak_live_intervals() const;

  const Topology& topology() const { return topo_; }

 private:
  /// Route between endpoint *indices*. Dense mode resolves through the
  /// dense route table (offsets into one shared LinkId arena), lazily
  /// built; implicit mode materializes the LCA walk into a scratch vector.
  /// Either way the returned span is valid until the next route() call.
  std::span<const LinkId> route(std::size_t src_ep, std::size_t dst_ep);
  std::span<const LinkId> tree_route(VertexId src, VertexId dst);
  const LinkParams& params_for_level(int level) const {
    const auto l = static_cast<std::size_t>(level);
    return l < level_params_.size() ? level_params_[l] : level_params_[0];
  }
  SimDuration up_hop_latency(VertexId v) const {
    return params_for_level(topo_.link(up_link_[v]).level).hop_latency;
  }
  const std::vector<std::uint32_t>& parents_from(VertexId src);
  /// Root the topology at vertex 0 if it is a tree; fills the per-vertex
  /// arrays and returns true. Non-trees leave them empty.
  bool try_root_tree();

  Topology topo_;
  NetworkConfig config_;
  std::vector<CalendarTimeline> link_timelines_;  // one per directed link
  CalendarTimeline bus_timeline_;                 // used when shared_medium
  EnergyMeter energy_;
  std::uint64_t packets_ = 0;
  std::uint64_t byte_hops_ = 0;

  // Dense hot tables, built at construction (see DESIGN.md §7.3):
  //  * level_params_[l] — O(1) per-hop parameter lookup (absent levels
  //    fall back to a copy of level 0);
  //  * packet_energy_ids_[type] — pre-interned "net.<type>" CounterIds.
  std::vector<LinkParams> level_params_;
  std::vector<double> level_factor_;  // serialization multiplier, >= 1.0
  std::array<CounterId, kPacketTypeCount> packet_energy_ids_{};

  // Implicit hierarchical routing (DESIGN.md §7.7). Four u32 arrays indexed
  // by vertex — 16 bytes per vertex, the entire routing state of a tree.
  // parent_/up_link_/down_link_ hold kNoVertex / kNoLink at the root.
  bool tree_routing_ = false;
  std::vector<std::uint32_t> parent_;    // parent vertex
  std::vector<LinkId> up_link_;          // v -> parent(v)
  std::vector<LinkId> down_link_;        // parent(v) -> v
  std::vector<std::uint32_t> depth_;     // root = 0
  std::vector<VertexId> bfs_order_;      // parents before children (DP order)
  std::vector<LinkId> path_scratch_;     // send()'s materialized route
  std::vector<LinkId> down_scratch_;     // dst-side chain, reversed into path

  // Dense routing caches (legacy / non-tree). routes_ is a dense src*E+dst
  // table of {offset, len} into path_arena_; parent trees are cached per
  // source vertex.
  struct RouteRef {
    std::uint32_t offset = 0;
    std::uint32_t len = kUnresolved;
  };
  static constexpr std::uint32_t kUnresolved = 0xFFFFFFFFu;
  std::vector<RouteRef> routes_;            // endpoint_count()^2
  std::vector<LinkId> path_arena_;          // shared storage for all routes
  std::vector<std::vector<std::uint32_t>> parent_cache_;  // BFS trees
  std::map<int, SimDuration> min_cross_cache_;  // min_cross_latency memo
};

}  // namespace ecoscale
