// GAP-style graph analytics over the global address space.
//
// A CSR graph is laid out in UNIMEM: vertices block-partition into
// contiguous ranges, one per Worker, and each Worker's range owns two
// PGAS regions in its node's memory — the vertex-value array and the
// adjacency slice. The engine runs level-synchronous pull algorithms
// (BFS, PageRank, connected components): every iteration, each Worker
// sweeps its vertices, streams its local adjacency, and reads neighbour
// values with timed PgasSystem::load — a neighbour owned by another
// Compute Node pays the full interconnect path, which is where the
// remote-edge fraction and byte-hops numbers come from. Per-Worker
// sim-time cursors advance through the accesses (the timed-PGAS idiom of
// bench_unimem_coherence); the iteration barrier and every convergence
// test (frontier count, rank delta, label changes) fold per-Worker
// partials with common/reduce.h reduction trees. Within an iteration a
// min-heap over (cursor, worker) advances the Worker with the earliest
// cursor by one vertex, ties to the lower id (sweep_in_time_order), so
// calendars see reservations in nearly ascending time, contention goes
// by arrival time, not host loop order, and results and timing are pure
// functions of the graph and the machine. A popped cursor is the least
// of every sweeping Worker's and cursors only grow, so it is a safe
// Machine::release watermark during the sweep, not only at the barrier.
//
// Algorithm updates are double-buffered (PageRank, CC) or monotonic with
// a level predicate (BFS), so the sweep order inside an iteration can
// never change the functional result — reference implementations in this
// header give tests an oracle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "runtime/machine.h"

namespace ecoscale::serve {

struct CsrGraph {
  std::size_t vertices = 0;
  std::vector<std::uint64_t> row;  // vertices + 1 offsets
  std::vector<std::uint32_t> col;  // neighbour lists, sorted per vertex
  std::size_t edges() const { return col.size(); }
};

/// Deterministic synthetic graph: out-degrees ~ bounded Poisson around
/// avg_degree, endpoints Zipf-skewed (skew > 0 concentrates edges on hub
/// vertices), then symmetrized and deduplicated — undirected, so BFS and
/// CC references are straightforward.
CsrGraph make_skewed_graph(std::size_t vertices, double avg_degree,
                           double skew, std::uint64_t seed);

inline constexpr std::uint32_t kUnreached = ~std::uint32_t{0};

struct GraphStats {
  std::size_t iterations = 0;
  SimTime time = 0;               // sim-time of the final barrier
  std::uint64_t edge_reads = 0;   // neighbour-value loads issued
  std::uint64_t remote_edge_reads = 0;
  std::uint64_t byte_hops = 0;    // interconnect byte-hops over the run
  double remote_fraction() const {
    return edge_reads == 0 ? 0.0
                           : static_cast<double>(remote_edge_reads) /
                                 static_cast<double>(edge_reads);
  }
};

struct BfsResult {
  std::vector<std::uint32_t> dist;  // kUnreached if not reachable
  GraphStats stats;
};
struct PagerankResult {
  std::vector<double> rank;
  GraphStats stats;
};
struct CcResult {
  std::vector<std::uint32_t> label;  // min reachable vertex id
  GraphStats stats;
};

/// Runs worker w's steps bounds[w] .. bounds[w + 1] - 1 in simulated-time
/// order: repeatedly pops the worker with the least (cursors[w], w), runs
/// `step(w, i, cursor) -> cursor` for its next index i, and pushes it back
/// until its range is done. Every cursors.size() pops it calls
/// `release(popped cursor)`: a valid watermark, since no later step
/// starts before it. A step must not move its cursor back.
template <typename Step, typename Release>
void sweep_in_time_order(std::span<SimTime> cursors,
                         std::span<const std::size_t> bounds, Step&& step,
                         Release&& release) {
  struct Head {
    SimTime cur;
    std::size_t w, i;  // worker, its next step
  };
  const auto later = [](const Head& a, const Head& b) {
    return a.cur != b.cur ? a.cur > b.cur : a.w > b.w;
  };
  std::vector<Head> heap;
  heap.reserve(cursors.size());
  for (std::size_t w = 0; w < cursors.size(); ++w) {
    if (bounds[w] < bounds[w + 1]) heap.push_back({cursors[w], w, bounds[w]});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  for (std::size_t pops = 1; !heap.empty(); ++pops) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& h = heap.back();
    if (pops % cursors.size() == 0) release(h.cur);
    const SimTime next = step(h.w, h.i, h.cur);
    ECO_CHECK_MSG(next >= h.cur, "a sweep step moved its cursor back");
    cursors[h.w] = h.cur = next;
    if (++h.i < bounds[h.w + 1]) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
}

class GraphEngine {
 public:
  /// Lays the graph out in `machine`'s PGAS. The machine should be a
  /// multi-node one (this engine drives PgasSystem directly; it does not
  /// use a Simulator or the task scheduler).
  GraphEngine(Machine& machine, const CsrGraph& graph);

  BfsResult bfs(std::uint32_t source);
  PagerankResult pagerank(std::size_t iterations, double damping = 0.85);
  /// Min-label propagation until a fixpoint.
  CcResult connected_components();

  std::size_t worker_count() const { return owners_.empty() ? 0 : workers_; }

 private:
  /// Contiguous vertex range of flat worker `w`.
  std::size_t range_begin(std::size_t w) const { return bounds_[w]; }
  std::size_t range_end(std::size_t w) const { return bounds_[w + 1]; }
  GlobalAddress value_addr(std::size_t buffer, std::uint32_t v) const;
  std::uint64_t read_value(std::size_t buffer, std::uint32_t v) const;
  void write_value(std::size_t buffer, std::uint32_t v, std::uint64_t x);
  /// Fill buffer `buffer` with `x` for every vertex.
  void fill_values(std::size_t buffer, std::uint64_t x);
  /// One iteration: sweep_in_time_order over every worker's range, with
  /// step(w, v, cursor) called after v's bookkeeping cost, releasing the
  /// machine's calendars behind the earliest cursor.
  template <typename Step>
  void sweep(Step&& step);
  /// Streams v's local adjacency slice (one bulk read) from `cur`, then
  /// loads every neighbour u's value in `buffer` and calls visit(u).
  /// Returns the cursor after the last access.
  template <typename Visit>
  SimTime pull(std::size_t w, std::uint32_t v, std::size_t buffer,
               SimTime cur, Visit&& visit);
  /// Reduction-tree max over per-worker cursors; aligns every cursor to
  /// the barrier and prunes the machine's retired calendars.
  SimTime barrier();

  Machine& machine_;
  const CsrGraph* graph_ = nullptr;
  std::size_t workers_ = 0;
  std::vector<std::size_t> bounds_;          // workers_ + 1 range offsets
  std::vector<std::uint32_t> owners_;        // vertex -> flat worker
  std::vector<std::uint64_t> value_base_[2]; // per worker, raw address
  std::vector<std::uint64_t> adj_base_;      // per worker, raw address
  std::vector<SimTime> cursors_;             // per worker
  GraphStats run_;  // accumulated by the sweep helpers of the current run
};

/// Single-threaded functional references (no machine, no timing).
std::vector<std::uint32_t> reference_bfs(const CsrGraph& g,
                                         std::uint32_t source);
std::vector<double> reference_pagerank(const CsrGraph& g,
                                       std::size_t iterations,
                                       double damping = 0.85);
std::vector<std::uint32_t> reference_cc(const CsrGraph& g);

}  // namespace ecoscale::serve
