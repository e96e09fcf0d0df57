#include "interconnect/network.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/check.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {
constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoVertex = std::numeric_limits<std::uint32_t>::max();
constexpr SimDuration kInfLatency = std::numeric_limits<SimDuration>::max();

/// Counter-track names for the interconnect, interned once per process.
struct NetTraceNames {
  CounterId packets = CounterRegistry::intern("net.packets");
  CounterId byte_hops = CounterRegistry::intern("net.byte_hops");
};
[[maybe_unused]] const NetTraceNames& net_trace_names() {
  static const NetTraceNames names;
  return names;
}

/// Stretch a duration by a degradation factor (>= 1.0, rounded to ps).
SimDuration scale_duration(SimDuration d, double factor) {
  if (factor == 1.0) return d;
  return static_cast<SimDuration>(static_cast<double>(d) * factor + 0.5);
}

/// Saturating add for the tree DPs (kInfLatency means "no endpoint here").
SimDuration sat_add(SimDuration a, SimDuration b) {
  return (a == kInfLatency || b == kInfLatency) ? kInfLatency : a + b;
}
}  // namespace

Network::Network(Topology topology, NetworkConfig config)
    : topo_(std::move(topology)),
      config_(std::move(config)),
      bus_timeline_("bus") {
  ECO_CHECK_MSG(config_.level_params.contains(0),
                "NetworkConfig must define level-0 link parameters");
  link_timelines_.resize(topo_.link_count());

  // Dense per-level parameter and traffic tables: links carry small level
  // tags, so an indexed array replaces the per-hop map find.
  int max_level = 0;
  for (LinkId l = 0; l < topo_.link_count(); ++l) {
    max_level = std::max(max_level, topo_.link(l).level);
  }
  for (const auto& [level, params] : config_.level_params) {
    if (level > max_level) max_level = level;
  }
  level_params_.assign(static_cast<std::size_t>(max_level) + 1,
                       config_.level_params.at(0));
  for (const auto& [level, params] : config_.level_params) {
    if (level >= 0) level_params_[static_cast<std::size_t>(level)] = params;
  }
  bytes_per_level_.assign(level_params_.size(), 0);
  level_factor_.assign(level_params_.size(), 1.0);

  // Pre-intern the per-packet-type energy categories so send() never
  // builds a "net." + name string on the hot path.
  for (std::size_t t = 0; t < kPacketTypeCount; ++t) {
    packet_energy_ids_[t] = CounterRegistry::intern(
        std::string("net.") +
        packet_type_name(static_cast<PacketType>(t)));
  }

  if (config_.routing != RoutingMode::kDenseTable) {
    tree_routing_ = try_root_tree();
  }
  if (!tree_routing_) {
    // Legacy dense tables: an 8-byte RouteRef per endpoint pair plus BFS
    // parent caches. Quadratic — only for non-trees and explicit opt-in.
    routes_.assign(topo_.endpoint_count() * topo_.endpoint_count(),
                   RouteRef{});
    parent_cache_.resize(topo_.vertex_count());
  }
}

bool Network::try_root_tree() {
  const std::size_t verts = topo_.vertex_count();
  if (verts == 0) return false;
  // A connected graph with exactly V-1 bidirectional links (2(V-1)
  // directed) and no self loops is a tree; root it at vertex 0 by BFS.
  if (topo_.link_count() != 2 * (verts - 1)) return false;
  parent_.assign(verts, kNoVertex);
  up_link_.assign(verts, kNoVertex);
  down_link_.assign(verts, kNoVertex);
  depth_.assign(verts, 0);
  bfs_order_.clear();
  bfs_order_.reserve(verts);
  bfs_order_.push_back(0);
  std::vector<bool> seen(verts, false);
  seen[0] = true;
  for (std::size_t head = 0; head < bfs_order_.size(); ++head) {
    const VertexId v = bfs_order_[head];
    for (LinkId l : topo_.out_links(v)) {
      const VertexId next = topo_.link(l).to;
      if (seen[next]) continue;
      seen[next] = true;
      parent_[next] = v;
      down_link_[next] = l;
      depth_[next] = depth_[v] + 1;
      // The reverse (child -> parent) directed link; trees have exactly
      // one, so a scan over the child's out-links is deterministic.
      for (LinkId r : topo_.out_links(next)) {
        if (topo_.link(r).to == v) {
          up_link_[next] = r;
          break;
        }
      }
      ECO_CHECK(up_link_[next] != kNoVertex);
      bfs_order_.push_back(next);
    }
  }
  if (bfs_order_.size() != verts) {  // disconnected: not a usable tree
    parent_.clear();
    up_link_.clear();
    down_link_.clear();
    depth_.clear();
    bfs_order_.clear();
    return false;
  }
  return true;
}

const std::vector<std::uint32_t>& Network::parents_from(VertexId src) {
  std::vector<std::uint32_t>& parent = parent_cache_[src];
  if (!parent.empty()) return parent;
  // BFS over vertices; parent[v] = link id used to reach v (deterministic:
  // links are visited in insertion order).
  parent.assign(topo_.vertex_count(), kNoParent);
  std::vector<VertexId> frontier{src};
  std::vector<bool> seen(topo_.vertex_count(), false);
  seen[src] = true;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const VertexId v = frontier[head];
    for (LinkId l : topo_.out_links(v)) {
      const VertexId next = topo_.link(l).to;
      if (!seen[next]) {
        seen[next] = true;
        parent[next] = l;
        frontier.push_back(next);
      }
    }
  }
  return parent;
}

std::span<const LinkId> Network::tree_route(VertexId src, VertexId dst) {
  // LCA walk: climb the deeper side, then both, emitting up-links in
  // travel order from src and collecting the dst side for reversal (the
  // down direction of each hop is the parent->child link).
  path_scratch_.clear();
  down_scratch_.clear();
  VertexId a = src;
  VertexId b = dst;
  while (depth_[a] > depth_[b]) {
    path_scratch_.push_back(up_link_[a]);
    a = parent_[a];
  }
  while (depth_[b] > depth_[a]) {
    down_scratch_.push_back(down_link_[b]);
    b = parent_[b];
  }
  while (a != b) {
    path_scratch_.push_back(up_link_[a]);
    a = parent_[a];
    down_scratch_.push_back(down_link_[b]);
    b = parent_[b];
  }
  path_scratch_.insert(path_scratch_.end(), down_scratch_.rbegin(),
                       down_scratch_.rend());
  return path_scratch_;
}

std::span<const LinkId> Network::route(std::size_t src_ep,
                                       std::size_t dst_ep) {
  if (tree_routing_) {
    return tree_route(topo_.endpoint(src_ep), topo_.endpoint(dst_ep));
  }
  RouteRef& ref = routes_[src_ep * topo_.endpoint_count() + dst_ep];
  if (ref.len != kUnresolved) {
    return {path_arena_.data() + ref.offset, ref.len};
  }
  const VertexId src = topo_.endpoint(src_ep);
  const VertexId dst = topo_.endpoint(dst_ep);
  const auto offset = static_cast<std::uint32_t>(path_arena_.size());
  if (src != dst) {
    const auto& parent = parents_from(src);
    ECO_CHECK_MSG(parent[dst] != kNoParent, "destination unreachable");
    VertexId v = dst;
    while (v != src) {
      const LinkId l = parent[v];
      ECO_CHECK(l != kNoParent);
      path_arena_.push_back(l);
      v = topo_.link(l).from;
    }
    std::reverse(path_arena_.begin() + offset, path_arena_.end());
  }
  ref.offset = offset;
  ref.len = static_cast<std::uint32_t>(path_arena_.size() - offset);
  return {path_arena_.data() + ref.offset, ref.len};
}

TransferResult Network::send(std::size_t src, std::size_t dst,
                             const Packet& packet, SimTime ready) {
  ECO_CHECK(src < topo_.endpoint_count() && dst < topo_.endpoint_count());
  TransferResult result;
  ++packets_;
  if (src == dst) {
    result.arrival = ready;
    return result;
  }
  // One route lookup for the whole transfer (the old code re-resolved the
  // path a second time for the last-byte term).
  const std::span<const LinkId> path = route(src, dst);
  if (path.empty()) {  // distinct endpoints sharing a vertex
    result.arrival = ready;
    return result;
  }
  const Bytes wire = packet.wire_bytes();
  SimTime head = ready;
  for (LinkId l : path) {
    const TopoLink& link = topo_.link(l);
    const auto level = static_cast<std::size_t>(link.level);
    const LinkParams& p = level_params_[level];
    const SimDuration serialization = scale_duration(
        p.bandwidth.transfer_time(wire), level_factor_[level]);
    CalendarTimeline& tl =
        config_.shared_medium ? bus_timeline_ : link_timelines_[l];
    // Cut-through: the head must win the link, then pays hop latency;
    // the tail trails by the serialization time.
    const SimTime start = tl.reserve(head, serialization);
    head = start + p.hop_latency;
    ++result.hops;
    result.energy += p.pj_per_byte * static_cast<double>(wire);
    result.energy += p.pj_per_packet;
    byte_hops_ += wire;
    bytes_per_level_[static_cast<std::size_t>(link.level)] += wire;
  }
  // Last-byte arrival: head arrival plus one serialization tail on the
  // final (bottleneck-approximated) link.
  const auto last_level =
      static_cast<std::size_t>(topo_.link(path.back()).level);
  const LinkParams& last = level_params_[last_level];
  result.arrival = head + scale_duration(last.bandwidth.transfer_time(wire),
                                         level_factor_[last_level]);
  energy_.charge(packet_energy_ids_[static_cast<std::size_t>(packet.type)],
                 result.energy);
  // Cumulative send/hop counter tracks, thinned by the session's sampling
  // interval (the thread-wide gate interleaves the two tracks).
  ECO_TRACE_COUNTER(obs::Cat::kNet, net_trace_names().packets,
                    (obs::Lane{obs::kNetPid, 0}), result.arrival, packets_);
  ECO_TRACE_COUNTER(obs::Cat::kNet, net_trace_names().byte_hops,
                    (obs::Lane{obs::kNetPid, 1}), result.arrival, byte_hops_);
  return result;
}

int Network::hop_count(std::size_t src, std::size_t dst) {
  ECO_CHECK(src < topo_.endpoint_count() && dst < topo_.endpoint_count());
  if (tree_routing_) {
    // depth(src) + depth(dst) - 2 depth(LCA), without materializing the
    // path (pure, so concurrent shard threads may call it).
    VertexId a = topo_.endpoint(src);
    VertexId b = topo_.endpoint(dst);
    int hops = 0;
    while (depth_[a] > depth_[b]) {
      a = parent_[a];
      ++hops;
    }
    while (depth_[b] > depth_[a]) {
      b = parent_[b];
      ++hops;
    }
    while (a != b) {
      a = parent_[a];
      b = parent_[b];
      hops += 2;
    }
    return hops;
  }
  return static_cast<int>(route(src, dst).size());
}

SimDuration Network::route_latency(std::size_t src, std::size_t dst) {
  ECO_CHECK(src < topo_.endpoint_count() && dst < topo_.endpoint_count());
  if (tree_routing_) {
    // Mutation-free LCA walk over per-level hop latencies — the latency
    // oracle the sharded runtime queries from concurrent shard threads.
    VertexId a = topo_.endpoint(src);
    VertexId b = topo_.endpoint(dst);
    SimDuration latency = 0;
    while (depth_[a] > depth_[b]) {
      latency += up_hop_latency(a);
      a = parent_[a];
    }
    while (depth_[b] > depth_[a]) {
      latency += up_hop_latency(b);
      b = parent_[b];
    }
    while (a != b) {
      latency += up_hop_latency(a) + up_hop_latency(b);
      a = parent_[a];
      b = parent_[b];
    }
    return latency;
  }
  SimDuration latency = 0;
  for (const LinkId l : route(src, dst)) {
    latency += params_for_level(topo_.link(l).level).hop_latency;
  }
  return latency;
}

SimDuration Network::min_cross_latency(int min_level) {
  const auto memo = min_cross_cache_.find(min_level);
  if (memo != min_cross_cache_.end()) return memo->second;
  SimDuration best = 0;
  if (tree_routing_) {
    // Analytic tree DP instead of the O(E^2·path) pairwise sweep. Removing
    // a tree link splits the endpoints in two; the cheapest route crossing
    // that link is (nearest endpoint below it) + hop + (nearest endpoint
    // above it). Minimize over links of level >= min_level.
    //
    // Pass 1 (leaves up): down_min[v] = min latency from v to an endpoint
    // in its subtree, folding each child into its parent while tracking
    // the parent's best and second-best child contributions (the top-2
    // trick gives "min over siblings except me" in O(1)).
    const std::size_t verts = topo_.vertex_count();
    std::vector<bool> is_ep(verts, false);
    for (std::size_t e = 0; e < topo_.endpoint_count(); ++e) {
      is_ep[topo_.endpoint(e)] = true;
    }
    std::vector<SimDuration> down_min(verts), best1(verts, kInfLatency),
        best2(verts, kInfLatency), up_out(verts);
    for (std::size_t v = 0; v < verts; ++v) {
      down_min[v] = is_ep[v] ? 0 : kInfLatency;
    }
    for (std::size_t i = verts; i-- > 1;) {  // children before parents
      const VertexId v = bfs_order_[i];
      const VertexId p = parent_[v];
      const SimDuration c = sat_add(down_min[v], up_hop_latency(v));
      if (c < best1[p]) {
        best2[p] = best1[p];
        best1[p] = c;
      } else if (c < best2[p]) {
        best2[p] = c;
      }
      down_min[p] = std::min(down_min[p], c);
    }
    // Pass 2 (root down): up_out[v] = min latency from v to an endpoint
    // NOT in its subtree (the hop to the parent included).
    up_out[bfs_order_[0]] = kInfLatency;
    for (std::size_t i = 1; i < verts; ++i) {
      const VertexId v = bfs_order_[i];
      const VertexId p = parent_[v];
      const SimDuration mine = sat_add(down_min[v], up_hop_latency(v));
      const SimDuration sibling = mine == best1[p] ? best2[p] : best1[p];
      SimDuration others = std::min(sibling, up_out[p]);
      if (is_ep[p]) others = 0;
      up_out[v] = sat_add(others, up_hop_latency(v));
    }
    SimDuration lowest = kInfLatency;
    for (std::size_t i = 1; i < verts; ++i) {
      const VertexId v = bfs_order_[i];
      if (topo_.link(up_link_[v]).level < min_level) continue;
      lowest = std::min(lowest, sat_add(down_min[v], up_out[v]));
    }
    best = lowest == kInfLatency ? 0 : lowest;
  } else {
    const std::size_t eps = topo_.endpoint_count();
    for (std::size_t src = 0; src < eps; ++src) {
      for (std::size_t dst = 0; dst < eps; ++dst) {
        if (src == dst) continue;
        bool crosses = false;
        SimDuration latency = 0;
        for (const LinkId l : route(src, dst)) {
          const TopoLink& link = topo_.link(l);
          if (link.level >= min_level) crosses = true;
          latency += params_for_level(link.level).hop_latency;
        }
        if (crosses && (best == 0 || latency < best)) best = latency;
      }
    }
  }
  min_cross_cache_.emplace(min_level, best);
  return best;
}

int Network::diameter() {
  if (tree_routing_) {
    // Deepest-LCA endpoint pair by tree DP: at every vertex combine the
    // two longest endpoint-reaching branches below it (the vertex itself
    // counts as a zero-length branch if it is an endpoint). O(V), against
    // one BFS per source (O(E·V)) for the dense path.
    constexpr int kNone = -1;
    const std::size_t verts = topo_.vertex_count();
    std::vector<int> down(verts, kNone), top1(verts, kNone),
        top2(verts, kNone);
    for (std::size_t e = 0; e < topo_.endpoint_count(); ++e) {
      const VertexId v = topo_.endpoint(e);
      down[v] = 0;
      top1[v] = 0;  // the vertex itself as a branch of length 0
    }
    int best = 0;
    for (std::size_t i = verts; i-- > 0;) {
      const VertexId v = bfs_order_[i];
      if (top1[v] != kNone && top2[v] != kNone) {
        best = std::max(best, top1[v] + top2[v]);
      }
      if (i == 0 || down[v] == kNone) continue;
      const VertexId p = parent_[v];
      const int c = down[v] + 1;
      if (c > top1[p]) {
        top2[p] = top1[p];
        top1[p] = c;
      } else if (c > top2[p]) {
        top2[p] = c;
      }
      down[p] = std::max(down[p], c);
    }
    return best;
  }
  // One BFS per source endpoint with a hop-distance array: O(V + L) per
  // source instead of re-walking the parent chain for every destination
  // pair (which was quadratic in path length per pair).
  int best = 0;
  std::vector<int> dist(topo_.vertex_count());
  std::vector<VertexId> frontier;
  frontier.reserve(topo_.vertex_count());
  for (std::size_t s = 0; s < topo_.endpoint_count(); ++s) {
    const VertexId sv = topo_.endpoint(s);
    dist.assign(topo_.vertex_count(), -1);
    frontier.clear();
    frontier.push_back(sv);
    dist[sv] = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const VertexId v = frontier[head];
      for (LinkId l : topo_.out_links(v)) {
        const VertexId next = topo_.link(l).to;
        if (dist[next] < 0) {
          dist[next] = dist[v] + 1;
          frontier.push_back(next);
        }
      }
    }
    for (std::size_t d = 0; d < topo_.endpoint_count(); ++d) {
      if (s == d) continue;
      const int hops = dist[topo_.endpoint(d)];
      ECO_CHECK_MSG(hops >= 0, "destination unreachable");
      best = std::max(best, hops);
    }
  }
  return best;
}

std::size_t Network::route_state_bytes() const {
  std::size_t bytes = 0;
  bytes += parent_.size() * sizeof(std::uint32_t);
  bytes += up_link_.size() * sizeof(LinkId);
  bytes += down_link_.size() * sizeof(LinkId);
  bytes += depth_.size() * sizeof(std::uint32_t);
  bytes += bfs_order_.size() * sizeof(VertexId);
  bytes += routes_.size() * sizeof(RouteRef);
  bytes += path_arena_.size() * sizeof(LinkId);
  for (const auto& p : parent_cache_) {
    bytes += p.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

void Network::set_level_degradation(int level, double factor) {
  ECO_CHECK_MSG(factor >= 1.0, "degradation factor must be >= 1.0");
  const auto l = static_cast<std::size_t>(level);
  ECO_CHECK_MSG(level >= 0 && l < level_factor_.size(),
                "unknown link level for degradation");
  level_factor_[l] = factor;
}

std::map<int, std::uint64_t> Network::bytes_per_level() const {
  std::map<int, std::uint64_t> out;
  for (std::size_t l = 0; l < bytes_per_level_.size(); ++l) {
    if (bytes_per_level_[l] != 0) out.emplace(static_cast<int>(l),
                                              bytes_per_level_[l]);
  }
  return out;
}

SimTime Network::max_link_busy() const {
  if (config_.shared_medium) return bus_timeline_.busy_time();
  SimTime best = 0;
  for (const auto& tl : link_timelines_) best = std::max(best, tl.busy_time());
  return best;
}

void Network::release(SimTime watermark) {
  bus_timeline_.release(watermark);
  for (auto& tl : link_timelines_) tl.release(watermark);
}

std::size_t Network::peak_live_intervals() const {
  std::size_t best = bus_timeline_.peak_live_intervals();
  for (const auto& tl : link_timelines_) {
    best = std::max(best, tl.peak_live_intervals());
  }
  return best;
}

double Network::max_link_utilization(SimTime horizon) const {
  if (horizon == 0) return 0.0;
  if (config_.shared_medium) return bus_timeline_.utilization(horizon);
  double best = 0.0;
  for (const auto& tl : link_timelines_) {
    best = std::max(best, tl.utilization(horizon));
  }
  return best;
}

}  // namespace ecoscale
