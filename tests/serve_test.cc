// Serving subsystem tests: the KV store must be linearizable per key
// against a reference map, admission control must shed (not hang) under
// overload, results must match pinned fingerprints, and the
// graph engine must match its single-threaded functional references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "runtime/sharded.h"
#include "serve/graph.h"
#include "serve/kvstore.h"
#include "serve/latency.h"
#include "serve/loadgen.h"

namespace ecoscale {
namespace {

using serve::KvApplyRecord;
using serve::KvOp;
using serve::KvResponse;
using serve::KvStore;
using serve::LoadGen;
using serve::LoadGenConfig;

ShardedRuntimeConfig serve_config(std::size_t nodes, std::size_t workers) {
  ShardedRuntimeConfig rc;
  rc.nodes = nodes;
  rc.workers_per_node = workers;
  rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
  rc.runtime.distribution = DistributionPolicy::kHomeOnly;
  return rc;
}

serve::KvConfig small_kv() {
  serve::KvConfig cfg;
  cfg.key_space = 256;
  cfg.value_bytes = 64;
  cfg.service_items = 64;
  return cfg;
}

/// Replay every node's apply log (in log order — per-key serialization
/// order, since each key lives on exactly one worker queue) against a
/// reference map and check each record's found/returned/value fields.
void check_logs_against_reference(const KvStore& kv, std::size_t nodes) {
  for (std::size_t n = 0; n < nodes; ++n) {
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    for (const KvApplyRecord& rec : kv.apply_log(n)) {
      ASSERT_EQ(kv.owner_of(rec.key), n) << "record on the wrong node";
      const auto it = reference.find(rec.key);
      const bool present = it != reference.end();
      switch (rec.op) {
        case KvOp::kGet:
          EXPECT_EQ(rec.found, present);
          EXPECT_EQ(rec.returned, present ? it->second : 0u);
          break;
        case KvOp::kSet:
          reference[rec.key] = rec.value;
          break;
        case KvOp::kDelete:
          EXPECT_EQ(rec.found, present);
          if (present) reference.erase(it);
          break;
      }
    }
  }
}

TEST(KvStore, PartitionSpreadsKeysAcrossNodes) {
  ShardedRuntime rt(serve_config(4, 2));
  KvStore kv(rt, small_kv());
  std::set<std::size_t> owners;
  for (std::uint64_t key = 0; key < small_kv().key_space; ++key) {
    owners.insert(kv.owner_of(key));
  }
  EXPECT_EQ(owners.size(), 4u);  // 256 hashed keys must touch all 4 nodes
}

TEST(KvStore, LinearizablePerKeyAgainstReferenceMap) {
  const std::size_t nodes = 4;
  ShardedRuntime rt(serve_config(nodes, 2));
  KvStore kv(rt, small_kv());

  std::vector<KvResponse> responses;
  kv.set_response_handler(
      [&responses](std::size_t, const KvResponse& resp) {
        responses.push_back(resp);
      });

  // A mixed workload over a small key range so keys see many conflicting
  // ops from different origins; issue pre-run, interleaved across origins.
  Rng rng(0x5E12);
  const std::size_t total = 240;
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t origin = i % nodes;
    const std::uint64_t key = rng.uniform_u64(32);
    const double r = rng.uniform();
    const KvOp op =
        r < 0.4 ? KvOp::kGet : (r < 0.8 ? KvOp::kSet : KvOp::kDelete);
    kv.issue(origin, op, key, /*value=*/1000 + i, /*request=*/1 + i);
  }
  rt.run();

  // Every request applied exactly once, and the logs replay cleanly.
  std::size_t applied = 0;
  for (std::size_t n = 0; n < nodes; ++n) applied += kv.apply_log(n).size();
  EXPECT_EQ(applied, total);
  EXPECT_EQ(rt.stats().shed_tasks, 0u);
  check_logs_against_reference(kv, nodes);

  // Exactly one response per request, consistent with the apply record.
  ASSERT_EQ(responses.size(), total);
  std::map<TaskId, const KvApplyRecord*> by_request;
  for (std::size_t n = 0; n < nodes; ++n) {
    for (const KvApplyRecord& rec : kv.apply_log(n)) {
      by_request[rec.request] = &rec;
    }
  }
  std::set<TaskId> seen;
  for (const KvResponse& resp : responses) {
    EXPECT_TRUE(seen.insert(resp.request).second) << "duplicate response";
    ASSERT_TRUE(by_request.count(resp.request));
    const KvApplyRecord& rec = *by_request[resp.request];
    EXPECT_FALSE(resp.shed);
    EXPECT_EQ(resp.key, rec.key);
    EXPECT_EQ(resp.op, rec.op);
    EXPECT_EQ(resp.found, rec.found);
    EXPECT_EQ(resp.value,
              rec.op == KvOp::kGet ? rec.returned : rec.value);
    EXPECT_GE(resp.completed, rec.at);  // reply cannot beat the apply
  }
}

TEST(KvStore, GetSetDeleteChainOnOneKey) {
  // A strict per-key chain driven off the response handler (each step is
  // issued from the origin shard when the previous one answers).
  const std::uint64_t key = 7;
  ShardedRuntime rt(serve_config(2, 2));
  KvStore kv(rt, small_kv());
  std::vector<KvResponse> log;
  kv.set_response_handler([&](std::size_t origin, const KvResponse& resp) {
    log.push_back(resp);
    switch (log.size()) {
      case 1: kv.issue(origin, KvOp::kSet, key, 42, 2); break;
      case 2: kv.issue(origin, KvOp::kGet, key, 0, 3); break;
      case 3: kv.issue(origin, KvOp::kDelete, key, 0, 4); break;
      case 4: kv.issue(origin, KvOp::kGet, key, 0, 5); break;
      default: break;
    }
  });
  kv.issue(/*origin=*/0, KvOp::kGet, key, 0, 1);
  rt.run();

  ASSERT_EQ(log.size(), 5u);
  EXPECT_FALSE(log[0].found);              // miss before the SET
  EXPECT_EQ(log[0].value, 0u);
  EXPECT_EQ(log[1].op, KvOp::kSet);
  EXPECT_TRUE(log[2].found);               // GET sees the SET
  EXPECT_EQ(log[2].value, 42u);
  EXPECT_TRUE(log[3].found);               // DELETE finds it
  EXPECT_FALSE(log[4].found);              // gone afterwards
}

TEST(KvStore, MigrateMovesAContiguousBlockInOneCopy) {
  const std::size_t nodes = 3;
  ShardedRuntime rt(serve_config(nodes, 2));
  serve::KvConfig cfg = small_kv();
  cfg.repart_blocks = 16;
  KvStore kv(rt, cfg);
  // Every block's slots are contiguous, in key order, on every node: the
  // premise of moving a block with one read and one write.
  std::vector<std::vector<std::uint64_t>> keys_of(cfg.repart_blocks);
  for (std::uint64_t key = 0; key < cfg.key_space; ++key) {
    keys_of[kv.block_of(key)].push_back(key);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    for (std::uint32_t b = 0; b < cfg.repart_blocks; ++b) {
      const auto& keys = keys_of[b];
      ASSERT_FALSE(keys.empty());
      const std::uint64_t slot_bytes = kv.item_bytes(b) / keys.size();
      ASSERT_EQ(slot_bytes * keys.size(), kv.item_bytes(b));
      const std::uint64_t base = kv.block_slot(n, keys.front()).raw();
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(kv.block_slot(n, keys[i]).raw(), base + i * slot_bytes)
            << "node " << n << " block " << b << " key " << keys[i];
      }
    }
  }
  // A migration leaves the donor's bytes at the receiver and zeros behind.
  const std::uint32_t block = 5;
  const std::uint64_t first = keys_of[block].front();
  const auto from = static_cast<std::uint32_t>(kv.owner_of(first));
  const auto to = static_cast<std::uint32_t>((from + 1) % nodes);
  const auto bytes = static_cast<std::size_t>(kv.item_bytes(block));
  std::vector<std::uint8_t> before(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    before[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  rt.machine(from).pgas().write_bytes(kv.block_slot(from, first), before);
  kv.migrate_item(block, from, to, 0);
  std::vector<std::uint8_t> got(bytes, 0xAA);
  rt.machine(to).pgas().read_bytes(kv.block_slot(to, first), got);
  EXPECT_EQ(got, before);
  rt.machine(from).pgas().read_bytes(kv.block_slot(from, first), got);
  EXPECT_EQ(got, std::vector<std::uint8_t>(bytes, 0));
}

TEST(Admission, ShedsInsteadOfHangingUnderOverload) {
  ShardedRuntimeConfig rc = serve_config(4, 2);
  rc.runtime.admission_limit = 8;
  ShardedRuntime rt(rc);
  serve::KvConfig kv_cfg = small_kv();
  kv_cfg.service_items = 2000;  // slow service, queues fill fast
  KvStore kv(rt, kv_cfg);

  LoadGenConfig lg;
  lg.mode = LoadGenConfig::Mode::kOpenLoop;
  lg.offered_load = 5e7;  // far beyond capacity
  lg.requests_per_node = 300;
  LoadGen gen(rt, kv, lg);
  gen.start();
  rt.run();  // returning at all is the no-livelock half of the test

  const LoadGen::Report report = gen.report();
  EXPECT_EQ(report.issued, 4u * 300u);
  EXPECT_GT(report.shed, 0u);
  EXPECT_EQ(report.completed + report.shed, report.issued);
  EXPECT_EQ(rt.stats().shed_tasks, report.shed);
  // Tail of *answered* requests is bounded by the queue-depth limit times
  // the per-request service path, far below the full-backlog tail.
  const serve::TailSummary tail = serve::summarize(report.latency);
  EXPECT_GT(tail.count, 0u);
  EXPECT_LE(tail.p999_ns, tail.max_ns);
}

TEST(Admission, ShedResponsesKeepClosedLoopsLive) {
  ShardedRuntimeConfig rc = serve_config(2, 1);
  rc.runtime.admission_limit = 2;
  ShardedRuntime rt(rc);
  serve::KvConfig kv_cfg = small_kv();
  kv_cfg.service_items = 4000;
  KvStore kv(rt, kv_cfg);

  LoadGenConfig lg;
  lg.mode = LoadGenConfig::Mode::kClosedLoop;
  lg.clients_per_node = 8;  // 8 clients into depth-2 queues: must shed
  lg.requests_per_client = 25;
  LoadGen gen(rt, kv, lg);
  gen.start();
  rt.run();

  const LoadGen::Report report = gen.report();
  // Every client ran its full budget: sheds answered, nobody starved.
  EXPECT_EQ(report.issued, 2u * 8u * 25u);
  EXPECT_EQ(report.completed + report.shed, report.issued);
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.completed, 0u);
}

LoadGen::Report run_loadgen() {
  ShardedRuntimeConfig rc = serve_config(4, 2);
  rc.runtime.admission_limit = 32;
  ShardedRuntime rt(rc);
  serve::KvConfig kv_cfg = small_kv();
  kv_cfg.key_space = 1024;
  kv_cfg.service_items = 500;
  KvStore kv(rt, kv_cfg);
  LoadGenConfig lg;
  lg.mode = LoadGenConfig::Mode::kOpenLoop;
  lg.offered_load = 4e6;
  lg.requests_per_node = 250;
  LoadGen gen(rt, kv, lg);
  gen.start();
  rt.run();
  return gen.report();
}

// Captured before the engine's host threads were deleted; every thread
// count the engine offered gave these values.
TEST(Determinism, LoadGenReportIsPinned) {
  const LoadGen::Report r = run_loadgen();
  EXPECT_EQ(r.fingerprint, 15811600211630494333ull);
  EXPECT_EQ(r.issued, 1000u);
  EXPECT_EQ(r.completed, 725u);
  EXPECT_EQ(r.shed, 275u);
  EXPECT_EQ(r.last_completion, 399860743u);
  EXPECT_EQ(r.latency.fingerprint(), 16324940971407887339ull);
}

// --- graph engine -----------------------------------------------------------

TEST(Graph, MakeSkewedGraphIsValidUndirectedCsr) {
  const serve::CsrGraph g = serve::make_skewed_graph(256, 4.0, 0.8, 99);
  ASSERT_EQ(g.row.size(), 257u);
  EXPECT_EQ(g.row.front(), 0u);
  EXPECT_EQ(g.row.back(), g.col.size());
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 0; v < 256; ++v) {
    ASSERT_LE(g.row[v], g.row[v + 1]);
    for (std::uint64_t e = g.row[v]; e < g.row[v + 1]; ++e) {
      const std::uint32_t u = g.col[e];
      ASSERT_LT(u, 256u);
      EXPECT_NE(u, v) << "self loop";
      if (e > g.row[v]) {
        EXPECT_LT(g.col[e - 1], u) << "unsorted/duplicate";
      }
      edges.emplace(v, u);
    }
  }
  for (const auto& [v, u] : edges) {
    EXPECT_TRUE(edges.count({u, v})) << "missing reverse edge " << u << "->"
                                     << v;
  }
}

struct GraphFixture {
  MachineConfig mc;
  Machine machine;
  serve::CsrGraph graph;
  serve::GraphEngine engine;

  GraphFixture()
      : mc(make_config()),
        machine(mc),
        graph(serve::make_skewed_graph(256, 4.0, 0.7, 0xEC05)),
        engine(machine, graph) {}

  static MachineConfig make_config() {
    MachineConfig mc;
    mc.nodes = 4;
    mc.workers_per_node = 2;
    return mc;
  }
};

TEST(Graph, BfsMatchesReference) {
  GraphFixture f;
  const serve::BfsResult result = f.engine.bfs(0);
  EXPECT_EQ(result.dist, serve::reference_bfs(f.graph, 0));
  EXPECT_GT(result.stats.iterations, 0u);
  EXPECT_GT(result.stats.edge_reads, 0u);
  EXPECT_LE(result.stats.remote_edge_reads, result.stats.edge_reads);
  EXPECT_GT(result.stats.remote_edge_reads, 0u);  // 4 nodes: some remote
  EXPECT_GT(result.stats.byte_hops, 0u);
  EXPECT_GT(result.stats.time, 0u);
}

TEST(Graph, PagerankMatchesReferenceBitwise) {
  GraphFixture f;
  const serve::PagerankResult result = f.engine.pagerank(6);
  const std::vector<double> ref = serve::reference_pagerank(f.graph, 6);
  ASSERT_EQ(result.rank.size(), ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(result.rank[v], ref[v]) << "vertex " << v;
  }
  double total = 0.0;
  for (const double r : result.rank) total += r;
  EXPECT_NEAR(total, 1.0, 0.2);  // dangling mass leaks a little
}

TEST(Graph, ConnectedComponentsMatchReference) {
  GraphFixture f;
  const serve::CcResult result = f.engine.connected_components();
  EXPECT_EQ(result.label, serve::reference_cc(f.graph));
  // Labels are the component's minimum vertex id.
  for (std::size_t v = 0; v < result.label.size(); ++v) {
    EXPECT_LE(result.label[v], v);
  }
}

TEST(Graph, RunsAreDeterministic) {
  GraphFixture a;
  GraphFixture b;
  const serve::BfsResult ra = a.engine.bfs(3);
  const serve::BfsResult rb = b.engine.bfs(3);
  EXPECT_EQ(ra.dist, rb.dist);
  EXPECT_EQ(ra.stats.time, rb.stats.time);
  EXPECT_EQ(ra.stats.edge_reads, rb.stats.edge_reads);
  EXPECT_EQ(ra.stats.remote_edge_reads, rb.stats.remote_edge_reads);
  EXPECT_EQ(ra.stats.byte_hops, rb.stats.byte_hops);
}

// RunsAreDeterministic compares the engine only with itself. These pin its
// timing to constants, so a change to link or DRAM reservation placement
// (CalendarTimeline, Network, DramChannel) fails here and not only in the
// benchmark's fingerprint gate. Re-pinned once for ROADMAP item 14:
// time-ordered graph sweeps.
TEST(Graph, TimingMatchesGoldenValues) {
  {
    GraphFixture f;
    const serve::GraphStats s = f.engine.bfs(0).stats;
    EXPECT_EQ(s.time, 420225870u);
    EXPECT_EQ(s.byte_hops, 419520u);
  }
  {
    GraphFixture f;
    const serve::GraphStats s = f.engine.pagerank(6).stats;
    EXPECT_EQ(s.time, 1695307009u);
    EXPECT_EQ(s.byte_hops, 1457280u);
  }
  {
    GraphFixture f;
    const serve::GraphStats s = f.engine.connected_components().stats;
    EXPECT_EQ(s.time, 1130893851u);
    EXPECT_EQ(s.byte_hops, 971520u);
  }
}

TEST(Graph, SequentialAlgorithmsShareTheLayout) {
  // BFS then PageRank then CC on one engine: cursors stay monotonic and
  // every run still matches its reference.
  GraphFixture f;
  EXPECT_EQ(f.engine.bfs(0).dist, serve::reference_bfs(f.graph, 0));
  const serve::PagerankResult pr = f.engine.pagerank(3);
  const std::vector<double> ref = serve::reference_pagerank(f.graph, 3);
  for (std::size_t v = 0; v < ref.size(); ++v) {
    ASSERT_EQ(pr.rank[v], ref[v]);
  }
  EXPECT_EQ(f.engine.connected_components().label,
            serve::reference_cc(f.graph));
}

// --- time-ordered sweep scheduler ------------------------------------------

// Per-worker start cursors and step costs: worker w runs cost[w].size()
// steps, its k-th advancing its cursor by cost[w][k].
struct SweepCase {
  std::vector<SimTime> start;
  std::vector<std::vector<SimDuration>> cost;
};

struct SweepVisit {
  std::size_t worker;
  std::size_t step;
  SimTime at;
  bool operator==(const SweepVisit&) const = default;
};

// `tag_bits` > 0 makes ties impossible: every cursor keeps its worker's
// distinct tag in its low bits, and costs are multiples of 2^tag_bits.
SweepCase random_sweep(Rng& rng, std::size_t workers, std::uint64_t span,
                       std::size_t max_steps, int tag_bits = 0) {
  SweepCase c;
  for (std::size_t w = 0; w < workers; ++w) {
    c.start.push_back((rng.uniform_u64(span) << tag_bits) + (tag_bits ? w : 0));
    c.cost.emplace_back(rng.uniform_u64(max_steps + 1));
    for (SimDuration& d : c.cost.back()) d = rng.uniform_u64(span) << tag_bits;
  }
  return c;
}

struct SweepRun {
  std::vector<SweepVisit> visits;
  std::vector<std::pair<std::size_t, SimTime>> releases;  // (visit, mark)
  std::vector<SimTime> cursors;
};

SweepRun run_sweep(const SweepCase& c) {
  SweepRun r;
  std::vector<std::size_t> bounds{0};
  for (const auto& steps : c.cost) bounds.push_back(bounds.back() + steps.size());
  r.cursors = c.start;
  serve::sweep_in_time_order(
      std::span<SimTime>(r.cursors), std::span<const std::size_t>(bounds),
      [&](std::size_t w, std::size_t i, SimTime cur) {
        const std::size_t k = i - bounds[w];
        r.visits.push_back({w, k, cur});
        return cur + c.cost[w][k];
      },
      [&](SimTime mark) { r.releases.emplace_back(r.visits.size(), mark); });
  return r;
}

// Oracle: a linear scan for the least (cursor, worker) among the workers
// with steps left, one step at a time.
SweepRun oracle_sweep(const SweepCase& c) {
  SweepRun r;
  r.cursors = c.start;
  std::vector<std::size_t> done(c.cost.size(), 0);
  for (;;) {
    std::size_t pick = c.cost.size();
    for (std::size_t w = 0; w < c.cost.size(); ++w) {
      if (done[w] == c.cost[w].size()) continue;
      if (pick == c.cost.size() || r.cursors[w] < r.cursors[pick]) pick = w;
    }
    if (pick == c.cost.size()) return r;
    r.visits.push_back({pick, done[pick], r.cursors[pick]});
    r.cursors[pick] += c.cost[pick][done[pick]++];
  }
}

TEST(TailSummary, ReportsNanosecondsAndGoodput) {
  LatencyHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.record(i * 1000);  // 1..1000 ns
  const serve::TailSummary s = serve::summarize(h);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.mean_ns, 500.5);
  EXPECT_DOUBLE_EQ(s.max_ns, 1000.0);
  EXPECT_LE(s.p50_ns, s.p99_ns);
  EXPECT_LE(s.p99_ns, s.p999_ns);
  EXPECT_NEAR(s.p50_ns, 500.0, 500.0 / LatencyHistogram::kSub);
  EXPECT_DOUBLE_EQ(serve::goodput_per_sec(1000, milliseconds(2)), 5e5);
  EXPECT_DOUBLE_EQ(serve::goodput_per_sec(1000, 0), 0.0);
}

TEST(GraphSweep, VisitsInLinearScanArgminOrder) {
  Rng rng(0x5EEB);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t workers = 1 + rng.uniform_u64(40);
    // Small spans force many tied cursors; large ones almost none.
    const std::uint64_t span = trial % 2 == 0 ? 4 : 1'000'000;
    const SweepCase c = random_sweep(rng, workers, span, 12);
    const SweepRun got = run_sweep(c);
    const SweepRun want = oracle_sweep(c);
    ASSERT_EQ(got.visits, want.visits) << "trial " << trial;
    ASSERT_EQ(got.cursors, want.cursors) << "trial " << trial;
  }
}

TEST(GraphSweep, ReleaseMarksNeverPassALaterStep) {
  Rng rng(0x4E1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t workers = 1 + rng.uniform_u64(24);
    const SweepCase c = random_sweep(rng, workers, 1 + rng.uniform_u64(50), 10);
    const SweepRun r = run_sweep(c);
    ASSERT_EQ(r.releases.size(), r.visits.size() / workers);
    SimTime last = 0;
    for (std::size_t n = 0; n < r.releases.size(); ++n) {
      const auto [visit, mark] = r.releases[n];
      ASSERT_EQ(visit, (n + 1) * workers - 1);
      ASSERT_EQ(mark, r.visits[visit].at);  // the popped cursor
      ASSERT_GE(mark, last);
      last = mark;
      for (std::size_t j = visit; j < r.visits.size(); ++j) {
        ASSERT_GE(r.visits[j].at, mark) << "trial " << trial;
      }
    }
  }
}

TEST(GraphSweep, RelabellingWorkersPermutesTheVisits) {
  Rng rng(0x9E7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t workers = 2 + rng.uniform_u64(30);
    const SweepCase c = random_sweep(rng, workers, 64, 10, /*tag_bits=*/6);
    std::vector<std::size_t> perm(workers);
    for (std::size_t w = 0; w < workers; ++w) perm[w] = w;
    for (std::size_t w = workers; w-- > 1;) {
      std::swap(perm[w], perm[rng.uniform_u64(w + 1)]);
    }
    SweepCase relabelled = c;
    for (std::size_t w = 0; w < workers; ++w) {
      relabelled.start[perm[w]] = c.start[w];
      relabelled.cost[perm[w]] = c.cost[w];
    }
    std::vector<SweepVisit> want = run_sweep(c).visits;
    for (SweepVisit& v : want) v.worker = perm[v.worker];
    ASSERT_EQ(run_sweep(relabelled).visits, want) << "trial " << trial;
  }
  // On a tie the lower id goes first whatever its costs, so relabelling
  // does not permute the visits: permuting tied's would start at worker 1.
  const SweepCase tied{{5, 5}, {{1}, {2}}};
  const SweepCase swapped{{5, 5}, {{2}, {1}}};
  EXPECT_EQ(run_sweep(tied).visits,
            (std::vector<SweepVisit>{{0, 0, 5}, {1, 0, 5}}));
  EXPECT_EQ(run_sweep(swapped).visits,
            (std::vector<SweepVisit>{{0, 0, 5}, {1, 0, 5}}));
}

}  // namespace
}  // namespace ecoscale
