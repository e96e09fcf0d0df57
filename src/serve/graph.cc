#include "serve/graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/reduce.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace ecoscale::serve {

namespace {

/// Fixed per-vertex bookkeeping cost of one sweep visit (index checks,
/// frontier predicate) — the cheap part; memory dominates by design.
constexpr SimDuration kVertexCost = nanoseconds(2);

constexpr Bytes kValueBytes = 8;
constexpr Bytes kEdgeBytes = 4;

struct GraphTraceNames {
  CounterId iter = CounterRegistry::intern("serve.graph.iter");
};
[[maybe_unused]] const GraphTraceNames& graph_trace_names() {
  static const GraphTraceNames names;
  return names;
}

std::uint64_t unreached_word() {
  return static_cast<std::uint64_t>(kUnreached);
}

}  // namespace

CsrGraph make_skewed_graph(std::size_t vertices, double avg_degree,
                           double skew, std::uint64_t seed) {
  ECO_CHECK(vertices >= 2);
  Rng rng(seed);
  ZipfSampler endpoint(vertices, skew);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(static_cast<std::size_t>(
      static_cast<double>(vertices) * avg_degree));
  const std::uint64_t degree_cap =
      8 + 4 * static_cast<std::uint64_t>(avg_degree);
  for (std::size_t v = 0; v < vertices; ++v) {
    const std::uint64_t deg = rng.bounded_poisson(avg_degree, degree_cap);
    for (std::uint64_t i = 0; i < deg; ++i) {
      const auto u = static_cast<std::uint32_t>(endpoint(rng));
      if (u == v) continue;
      edges.emplace_back(std::min<std::uint32_t>(v, u),
                         std::max<std::uint32_t>(v, u));
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  CsrGraph g;
  g.vertices = vertices;
  g.row.assign(vertices + 1, 0);
  for (const auto& [a, b] : edges) {
    ++g.row[a + 1];
    ++g.row[b + 1];
  }
  for (std::size_t v = 0; v < vertices; ++v) g.row[v + 1] += g.row[v];
  g.col.resize(g.row[vertices]);
  std::vector<std::uint64_t> cursor(g.row.begin(), g.row.end() - 1);
  for (const auto& [a, b] : edges) {
    g.col[cursor[a]++] = b;
    g.col[cursor[b]++] = a;
  }
  // Neighbour lists come out sorted because the edge list is sorted per
  // endpoint `a` and symmetrized in a second ordered pass per `b`; sort
  // defensively anyway (cheap, and determinism leans on the order).
  for (std::size_t v = 0; v < vertices; ++v) {
    std::sort(g.col.begin() + static_cast<std::ptrdiff_t>(g.row[v]),
              g.col.begin() + static_cast<std::ptrdiff_t>(g.row[v + 1]));
  }
  return g;
}

GraphEngine::GraphEngine(Machine& machine, const CsrGraph& graph)
    : machine_(machine), graph_(&graph) {
  workers_ = machine_.worker_count();
  ECO_CHECK(workers_ >= 1);
  ECO_CHECK_MSG(graph.vertices >= workers_,
                "need at least one vertex per worker");
  const std::size_t per_node = machine_.workers_per_node();
  PgasSystem& pgas = machine_.pgas();

  bounds_.resize(workers_ + 1);
  for (std::size_t w = 0; w <= workers_; ++w) {
    bounds_[w] = (graph.vertices * w) / workers_;
  }
  owners_.resize(graph.vertices);
  for (std::size_t w = 0; w < workers_; ++w) {
    for (std::size_t v = range_begin(w); v < range_end(w); ++v) {
      owners_[v] = static_cast<std::uint32_t>(w);
    }
  }

  value_base_[0].resize(workers_);
  value_base_[1].resize(workers_);
  adj_base_.resize(workers_);
  cursors_.assign(workers_, 0);
  for (std::size_t w = 0; w < workers_; ++w) {
    const auto node = static_cast<NodeId>(w / per_node);
    const auto worker = static_cast<WorkerId>(w % per_node);
    const std::size_t vcount = range_end(w) - range_begin(w);
    const std::uint64_t ecount =
        graph.row[range_end(w)] - graph.row[range_begin(w)];
    value_base_[0][w] =
        pgas.alloc(node, worker, vcount * kValueBytes).raw();
    value_base_[1][w] =
        pgas.alloc(node, worker, vcount * kValueBytes).raw();
    if (ecount > 0) {
      const GlobalAddress adj =
          pgas.alloc(node, worker, ecount * kEdgeBytes);
      adj_base_[w] = adj.raw();
      const std::uint32_t* slice = graph.col.data() +
                                   graph.row[range_begin(w)];
      pgas.write_bytes(
          adj, std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(slice),
                   static_cast<std::size_t>(ecount * kEdgeBytes)));
    }
  }
}

GlobalAddress GraphEngine::value_addr(std::size_t buffer,
                                      std::uint32_t v) const {
  const std::uint32_t w = owners_[v];
  return GlobalAddress::from_raw(value_base_[buffer][w]) +
         (v - range_begin(w)) * kValueBytes;
}

std::uint64_t GraphEngine::read_value(std::size_t buffer,
                                      std::uint32_t v) const {
  std::uint64_t word = 0;
  machine_.pgas().read_bytes(
      value_addr(buffer, v),
      std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&word),
                              sizeof word));
  return word;
}

void GraphEngine::write_value(std::size_t buffer, std::uint32_t v,
                              std::uint64_t x) {
  machine_.pgas().write_bytes(
      value_addr(buffer, v),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(&x), sizeof x));
}

void GraphEngine::fill_values(std::size_t buffer, std::uint64_t x) {
  for (std::size_t v = 0; v < graph_->vertices; ++v) {
    write_value(buffer, static_cast<std::uint32_t>(v), x);
  }
}

SimTime GraphEngine::barrier() {
  const SimTime at = reduce_tree<SimTime>(
      workers_, 0, [&](std::size_t w) { return cursors_[w]; },
      [](SimTime a, SimTime b) { return std::max(a, b); });
  for (auto& c : cursors_) c = at;
  machine_.release(at);
  return at;
}

template <typename Step>
void GraphEngine::sweep(Step&& step) {
  sweep_in_time_order(
      cursors_, bounds_,
      [&](std::size_t w, std::size_t v, SimTime cur) {
        return step(w, static_cast<std::uint32_t>(v), cur + kVertexCost);
      },
      [this](SimTime t) { machine_.release(t); });
}

template <typename Visit>
SimTime GraphEngine::pull(std::size_t w, std::uint32_t v, std::size_t buffer,
                          SimTime cur, Visit&& visit) {
  PgasSystem& pgas = machine_.pgas();
  const CsrGraph& g = *graph_;
  const std::uint64_t deg = g.row[v + 1] - g.row[v];
  if (deg == 0) return cur;
  const WorkerCoord self = pgas.coord(w);
  const GlobalAddress adj = GlobalAddress::from_raw(adj_base_[w]) +
                            (g.row[v] - g.row[range_begin(w)]) * kEdgeBytes;
  cur = pgas.load(self, adj, deg * kEdgeBytes, cur).finish;
  for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
    const std::uint32_t u = g.col[e];
    const MemAccess acc =
        pgas.load(self, value_addr(buffer, u), kValueBytes, cur);
    cur = acc.finish;
    ++run_.edge_reads;
    run_.remote_edge_reads += acc.remote;
    visit(u);
  }
  return cur;
}

BfsResult GraphEngine::bfs(std::uint32_t source) {
  ECO_CHECK(source < graph_->vertices);
  PgasSystem& pgas = machine_.pgas();
  const CsrGraph& g = *graph_;
  run_ = GraphStats{};
  const std::uint64_t hops_before = pgas.network().byte_hops();
  const SimTime start = barrier();

  fill_values(0, unreached_word());
  write_value(0, source, 0);

  std::vector<std::uint64_t> frontier(workers_);
  for (std::uint64_t level = 1;; ++level) {
    const SimTime iter_start = barrier();
    std::fill(frontier.begin(), frontier.end(), 0);
    sweep([&](std::size_t w, std::uint32_t v, SimTime cur) {
      if (read_value(0, v) != unreached_word()) return cur;
      // Pull each neighbour's level; a vertex written this iteration holds
      // `level`, never level - 1, so the sweep order cannot matter.
      bool hit = false;
      cur = pull(w, v, 0, cur, [&](std::uint32_t u) {
        if (!hit && read_value(0, u) == level - 1) hit = true;
      });
      if (hit) {
        cur = pgas.store(pgas.coord(w), value_addr(0, v), kValueBytes, cur)
                  .finish;
        write_value(0, v, level);
        ++frontier[w];
      }
      return cur;
    });
    const SimTime iter_end = barrier();
    ECO_TRACE_SPAN(obs::Cat::kServe, graph_trace_names().iter,
                   (obs::Lane{0, 0}), iter_start, iter_end,
                   static_cast<std::uint32_t>(level));
    ++run_.iterations;
    const std::uint64_t advanced = reduce_tree<std::uint64_t>(
        workers_, 0, [&](std::size_t w) { return frontier[w]; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    if (advanced == 0) break;
  }

  BfsResult result;
  result.dist.resize(g.vertices);
  for (std::size_t v = 0; v < g.vertices; ++v) {
    result.dist[v] = static_cast<std::uint32_t>(
        read_value(0, static_cast<std::uint32_t>(v)));
  }
  run_.time = barrier() - start;
  run_.byte_hops = pgas.network().byte_hops() - hops_before;
  result.stats = run_;
  return result;
}

PagerankResult GraphEngine::pagerank(std::size_t iterations,
                                     double damping) {
  PgasSystem& pgas = machine_.pgas();
  const CsrGraph& g = *graph_;
  run_ = GraphStats{};
  const std::uint64_t hops_before = pgas.network().byte_hops();
  const SimTime start = barrier();

  const double n = static_cast<double>(g.vertices);
  fill_values(0, std::bit_cast<std::uint64_t>(1.0 / n));

  std::size_t cur_buf = 0;
  std::vector<double> delta(workers_);
  for (std::size_t it = 0; it < iterations; ++it) {
    const std::size_t next_buf = 1 - cur_buf;
    const SimTime iter_start = barrier();
    std::fill(delta.begin(), delta.end(), 0.0);
    sweep([&](std::size_t w, std::uint32_t v, SimTime cur) {
      double sum = 0.0;
      cur = pull(w, v, cur_buf, cur, [&](std::uint32_t u) {
        const double ru = std::bit_cast<double>(read_value(cur_buf, u));
        const double udeg = static_cast<double>(g.row[u + 1] - g.row[u]);
        sum += ru / udeg;  // udeg >= 1: u has at least edge (u, v)
      });
      const double next = (1.0 - damping) / n + damping * sum;
      cur = pgas.store(pgas.coord(w), value_addr(next_buf, v), kValueBytes,
                       cur)
                .finish;
      const double prev = std::bit_cast<double>(read_value(cur_buf, v));
      delta[w] += std::abs(next - prev);
      write_value(next_buf, v, std::bit_cast<std::uint64_t>(next));
      return cur;
    });
    const SimTime iter_end = barrier();
    ECO_TRACE_SPAN(obs::Cat::kServe, graph_trace_names().iter,
                   (obs::Lane{0, 1}), iter_start, iter_end,
                   static_cast<std::uint32_t>(it));
    ++run_.iterations;
    // Convergence signal, reduction-tree folded (deterministic rounding);
    // the iteration count is fixed so engine and reference stay in step,
    // but a fully-converged run can stop paying for sweeps.
    const double total_delta = reduce_tree<double>(
        workers_, 0.0, [&](std::size_t w) { return delta[w]; },
        [](double a, double b) { return a + b; });
    cur_buf = next_buf;
    if (total_delta == 0.0) break;
  }

  PagerankResult result;
  result.rank.resize(g.vertices);
  for (std::size_t v = 0; v < g.vertices; ++v) {
    result.rank[v] = std::bit_cast<double>(
        read_value(cur_buf, static_cast<std::uint32_t>(v)));
  }
  run_.time = barrier() - start;
  run_.byte_hops = pgas.network().byte_hops() - hops_before;
  result.stats = run_;
  return result;
}

CcResult GraphEngine::connected_components() {
  PgasSystem& pgas = machine_.pgas();
  const CsrGraph& g = *graph_;
  run_ = GraphStats{};
  const std::uint64_t hops_before = pgas.network().byte_hops();
  const SimTime start = barrier();

  for (std::size_t v = 0; v < g.vertices; ++v) {
    write_value(0, static_cast<std::uint32_t>(v), v);
  }

  std::size_t cur_buf = 0;
  std::vector<std::uint64_t> changed(workers_);
  for (;;) {
    const std::size_t next_buf = 1 - cur_buf;
    const SimTime iter_start = barrier();
    std::fill(changed.begin(), changed.end(), 0);
    sweep([&](std::size_t w, std::uint32_t v, SimTime cur) {
      const std::uint64_t own = read_value(cur_buf, v);
      std::uint64_t best = own;
      cur = pull(w, v, cur_buf, cur, [&](std::uint32_t u) {
        best = std::min(best, read_value(cur_buf, u));
      });
      if (best != own) ++changed[w];
      cur = pgas.store(pgas.coord(w), value_addr(next_buf, v), kValueBytes,
                       cur)
                .finish;
      write_value(next_buf, v, best);
      return cur;
    });
    const SimTime iter_end = barrier();
    ECO_TRACE_SPAN(obs::Cat::kServe, graph_trace_names().iter,
                   (obs::Lane{0, 2}), iter_start, iter_end,
                   static_cast<std::uint32_t>(run_.iterations));
    ++run_.iterations;
    const std::uint64_t total_changed = reduce_tree<std::uint64_t>(
        workers_, 0, [&](std::size_t w) { return changed[w]; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    cur_buf = next_buf;
    if (total_changed == 0) break;
  }

  CcResult result;
  result.label.resize(g.vertices);
  for (std::size_t v = 0; v < g.vertices; ++v) {
    result.label[v] = static_cast<std::uint32_t>(
        read_value(cur_buf, static_cast<std::uint32_t>(v)));
  }
  run_.time = barrier() - start;
  run_.byte_hops = pgas.network().byte_hops() - hops_before;
  result.stats = run_;
  return result;
}

// --- functional references --------------------------------------------------

std::vector<std::uint32_t> reference_bfs(const CsrGraph& g,
                                         std::uint32_t source) {
  std::vector<std::uint32_t> dist(g.vertices, kUnreached);
  std::deque<std::uint32_t> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const std::uint32_t v = queue.front();
    queue.pop_front();
    for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
      const std::uint32_t u = g.col[e];
      if (dist[u] != kUnreached) continue;
      dist[u] = dist[v] + 1;
      queue.push_back(u);
    }
  }
  return dist;
}

std::vector<double> reference_pagerank(const CsrGraph& g,
                                       std::size_t iterations,
                                       double damping) {
  const double n = static_cast<double>(g.vertices);
  std::vector<double> rank(g.vertices, 1.0 / n);
  std::vector<double> next(g.vertices, 0.0);
  for (std::size_t it = 0; it < iterations; ++it) {
    double delta = 0.0;
    for (std::size_t v = 0; v < g.vertices; ++v) {
      double sum = 0.0;
      for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
        const std::uint32_t u = g.col[e];
        sum += rank[u] / static_cast<double>(g.row[u + 1] - g.row[u]);
      }
      next[v] = (1.0 - damping) / n + damping * sum;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    if (delta == 0.0) break;
  }
  return rank;
}

std::vector<std::uint32_t> reference_cc(const CsrGraph& g) {
  std::vector<std::uint32_t> label(g.vertices, kUnreached);
  std::deque<std::uint32_t> queue;
  for (std::size_t s = 0; s < g.vertices; ++s) {
    if (label[s] != kUnreached) continue;
    // `s` is the smallest unvisited vertex, hence its component's min id.
    label[s] = static_cast<std::uint32_t>(s);
    queue.push_back(static_cast<std::uint32_t>(s));
    while (!queue.empty()) {
      const std::uint32_t v = queue.front();
      queue.pop_front();
      for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
        const std::uint32_t u = g.col[e];
        if (label[u] != kUnreached) continue;
        label[u] = static_cast<std::uint32_t>(s);
        queue.push_back(u);
      }
    }
  }
  return label;
}

}  // namespace ecoscale::serve
