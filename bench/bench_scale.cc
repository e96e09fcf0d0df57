// bench_scale — machine-construction and routing scalability (DESIGN.md
// §7.7): sweeps the simulated machine from 64 to 100k workers and reports
// what the implicit-routing + pooled-state refactor is supposed to buy:
//
//  * construction wall time (a 100k-worker machine must build in < 1 s),
//  * routing + cross-shard mailbox state per endpoint (< 64 B/endpoint —
//    the dense table alone was 8 B per endpoint *pair*),
//  * route-computation ns/op (the LCA walk, sampled over random pairs),
//    compared head-to-head against the legacy dense table at 64 workers,
//  * cross-shard message throughput through the consolidated per-thread
//    lanes, with the 1-vs-N-thread hash equality gate.
//
// Deterministic columns (state bytes, hashes, counts) are committed in
// bench/baselines/bench_scale.json and compared exactly by CI; wall-time
// and throughput columns are derated into ceilings/floors there (see
// scripts/update_baselines.py).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <random>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "interconnect/network.h"
#include "interconnect/topology.h"
#include "runtime/machine.h"
#include "sim/parallel.h"

namespace ecoscale {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Resident set size in bytes (Linux /proc/self/statm; 0 elsewhere).
std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(resident) * 4096u;
}

struct ScalePoint {
  std::size_t nodes;
  std::size_t workers_per_node;
  std::size_t chassis;
};

struct ScaleRow {
  std::size_t workers = 0;
  std::size_t nodes = 0;
  double construct_ms = 0.0;
  double rss_mb = 0.0;             // RSS growth while constructing
  std::uint64_t route_bytes = 0;   // Network routing state
  std::uint64_t lane_bytes = 0;    // sharded-engine lane rings
  double state_b_per_ep = 0.0;     // (route + lanes) / workers
  double route_ns = 0.0;           // route_latency ns/op, sampled pairs
  std::uint64_t lazy_workers = 0;  // constructed after touching one pool
};

/// Time route_latency over `samples` random endpoint pairs.
double route_ns_per_op(Network& net, std::size_t samples) {
  std::mt19937 rng(42);
  const std::size_t eps = net.endpoint_count();
  // Pre-draw the pairs so the timed loop measures routing, not the RNG.
  std::vector<std::uint32_t> pairs(2 * samples);
  for (auto& v : pairs) v = rng() % eps;
  SimDuration sink = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < samples; ++i) {
    sink += net.route_latency(pairs[2 * i], pairs[2 * i + 1]);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  ECO_CHECK(sink > 0);  // keep the loop observable
  return ns / static_cast<double>(samples);
}

ScaleRow measure_scale_point(const ScalePoint& p) {
  ScaleRow row;
  row.nodes = p.nodes;
  row.workers = p.nodes * p.workers_per_node;

  MachineConfig mc;
  mc.nodes = p.nodes;
  mc.workers_per_node = p.workers_per_node;
  mc.pgas.chassis = p.chassis;

  const std::uint64_t rss_before = rss_bytes();
  const auto start = Clock::now();
  Machine machine(mc);
  // The engine shard layout a parallel run of this machine would use: one
  // shard per Compute Node, one message lane per worker thread.
  ShardedConfig sc;
  sc.shards = p.nodes;
  sc.lookahead = std::max<SimDuration>(machine.pgas().shard_lookahead(), 1);
  sc.threads = bench::sim_threads();
  ShardedSimulator engine(sc);
  row.construct_ms = ms_since(start);
  const std::uint64_t rss_after = rss_bytes();
  row.rss_mb = rss_after > rss_before
                   ? static_cast<double>(rss_after - rss_before) / (1 << 20)
                   : 0.0;

  Network& net = machine.pgas().network();
  ECO_CHECK_MSG(net.implicit_routing(),
                "machine trees must route implicitly");
  row.route_bytes = net.route_state_bytes();
  row.lane_bytes = engine.mailbox_state_bytes();
  row.state_b_per_ep =
      static_cast<double>(row.route_bytes + row.lane_bytes) /
      static_cast<double>(row.workers);

  // Routing cost, sampled over random pairs (fewer samples at 100k where
  // the working set no longer fits in cache — that is the point).
  const std::size_t samples = row.workers >= 50000 ? 200000 : 400000;
  row.route_ns = route_ns_per_op(net, samples);

  // Pooled state: constructing the machine built no workers at all;
  // touching one node's pool builds exactly that node's workers.
  ECO_CHECK_MSG(machine.constructed_workers() == 0,
                "construction must not touch worker state");
  machine.pool(0);
  row.lazy_workers = machine.constructed_workers();
  ECO_CHECK_MSG(row.lazy_workers == p.workers_per_node,
                "touching one pool must build exactly one node's workers");
  return row;
}

// --- cross-shard message throughput over the consolidated lanes -------------

struct LaneActor {
  ShardedSimulator* eng = nullptr;
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::uint64_t remaining = 0;
  std::uint64_t* hash = nullptr;  // per-shard FNV accumulator
  Rng rng{0};

  void fire() {
    Simulator& sim = eng->shard(shard);
    std::uint64_t& h = *hash;
    h = (h ^ sim.now()) * 1099511628211ull;
    if (remaining == 0) return;
    --remaining;
    const std::size_t to = (shard + 1 + rng.uniform_u64(shards - 1)) % shards;
    const SimTime t = sim.now() + eng->lookahead() + rng.uniform_u64(150);
    std::uint64_t* dest_hash = hash - shard + to;  // same vector
    ShardedSimulator* e = eng;
    eng->post(shard, to, t, [e, to, dest_hash] {
      *dest_hash = (*dest_hash ^ e->shard(to).now()) * 1099511628211ull;
    });
    sim.schedule_after(1 + rng.uniform_u64(40), [this] { fire(); });
  }
};

struct LaneRun {
  std::uint64_t messages = 0;
  std::uint64_t spills = 0;
  double msgs_per_sec = 0.0;
  std::uint64_t hash = 0;
  double wall_s = 0.0;
};

LaneRun lane_throughput(std::size_t shards, std::size_t threads,
                        std::uint64_t fires) {
  ShardedConfig sc;
  sc.shards = shards;
  sc.lookahead = 200;
  sc.threads = threads;
  sc.mailbox_capacity = 1024;
  ShardedSimulator engine(sc);
  std::vector<std::uint64_t> hashes(shards, 1469598103934665603ull);
  std::vector<std::unique_ptr<LaneActor>> actors;
  for (std::size_t s = 0; s < shards; ++s) {
    for (int a = 0; a < 4; ++a) {
      actors.push_back(std::make_unique<LaneActor>());
      LaneActor& actor = *actors.back();
      actor.eng = &engine;
      actor.shard = s;
      actor.shards = shards;
      actor.remaining = fires;
      actor.hash = &hashes[s];
      actor.rng = Rng(0xACE5 + s * 8 + a);
      engine.shard(s).schedule_at(static_cast<SimTime>(1 + a),
                                  [&actor] { actor.fire(); });
    }
  }
  const auto start = Clock::now();
  engine.run();
  LaneRun run;
  run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  run.messages = engine.messages();
  run.spills = engine.mailbox_spills();
  run.msgs_per_sec = static_cast<double>(run.messages) / run.wall_s;
  run.hash = 1469598103934665603ull;
  for (const std::uint64_t h : hashes) {
    run.hash = (run.hash ^ h) * 1099511628211ull;
  }
  run.hash = (run.hash ^ engine.events_processed()) * 1099511628211ull;
  run.hash = (run.hash ^ engine.windows()) * 1099511628211ull;
  run.hash = (run.hash ^ engine.messages()) * 1099511628211ull;
  return run;
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  bench::init(argc, argv);
  bench::print_header(
      "bench_scale",
      "hierarchical machines scale to 100k workers: implicit routes, "
      "per-thread lanes, pooled node state");

  // --- construction + state sweep -----------------------------------------
  const std::vector<ScalePoint> points = {
      {4, 16, 1},       // 64 workers
      {64, 16, 1},      // 1k
      {640, 16, 10},    // 10k, three-level tree
      {6250, 16, 25},   // 100k, three-level tree
  };
  Table scale({"workers", "nodes", "construct ms", "rss MB", "route bytes",
               "lane bytes", "state B/ep", "route ns/op", "lazy workers"});
  std::vector<ScaleRow> rows;
  for (const ScalePoint& p : points) {
    rows.push_back(measure_scale_point(p));
    const ScaleRow& r = rows.back();
    scale.add_row({fmt_u64(r.workers), fmt_u64(r.nodes),
                   fmt_fixed(r.construct_ms, 2), fmt_fixed(r.rss_mb, 1),
                   fmt_u64(r.route_bytes), fmt_u64(r.lane_bytes),
                   fmt_fixed(r.state_b_per_ep, 2), fmt_fixed(r.route_ns, 1),
                   fmt_u64(r.lazy_workers)});
  }
  bench::print_table(
      scale,
      "machine construction and routing state, 64 -> 100k workers (route\n"
      "state is the per-vertex tree arrays; lane bytes the per-thread\n"
      "cross-shard rings; lazy workers = constructed after touching one\n"
      "node's pool):");
  const ScaleRow& big = rows.back();
  if (big.construct_ms >= 1000.0) {
    std::cerr << "FATAL: 100k-worker machine took " << big.construct_ms
              << " ms to construct (budget: 1000 ms)\n";
    return 1;
  }
  if (big.state_b_per_ep >= 64.0) {
    std::cerr << "FATAL: route+mailbox state is " << big.state_b_per_ep
              << " B/endpoint at 100k workers (budget: 64)\n";
    return 1;
  }

  // --- implicit vs dense routing at 64 endpoints --------------------------
  // The dense table is the old default; at small scale it is a plain array
  // lookup, so it bounds how much the LCA walk may cost.
  NetworkConfig dense_cfg;
  dense_cfg.routing = RoutingMode::kDenseTable;
  Network dense(make_tree({16, 4}), dense_cfg);
  NetworkConfig imp_cfg;
  imp_cfg.routing = RoutingMode::kImplicitTree;
  Network implicit(make_tree({16, 4}), imp_cfg);
  dense.min_cross_latency(0);  // pre-materialize every dense route
  (void)route_ns_per_op(dense, 100000);     // warm both
  (void)route_ns_per_op(implicit, 100000);
  const double dense_ns = route_ns_per_op(dense, 400000);
  const double implicit_ns = route_ns_per_op(implicit, 400000);
  Table modes({"mode", "route ns/op", "route bytes"});
  modes.add_row({"dense table", fmt_fixed(dense_ns, 2),
                 fmt_u64(dense.route_state_bytes())});
  modes.add_row({"implicit LCA", fmt_fixed(implicit_ns, 2),
                 fmt_u64(implicit.route_state_bytes())});
  bench::print_table(modes,
                     "route_latency cost at 64 workers, implicit walk vs\n"
                     "pre-materialized dense table (the walk must stay\n"
                     "within 2x of the lookup):");

  // --- cross-shard throughput over consolidated lanes ---------------------
  constexpr std::size_t kShards = 32;
  constexpr std::uint64_t kFires = 600;
  lane_throughput(kShards, 1, kFires / 8);  // warm-up
  const LaneRun seq = lane_throughput(kShards, 1, kFires);
  const LaneRun par = lane_throughput(kShards, bench::sim_threads(), kFires);
  Table lanes({"sim threads", "messages", "spills", "msgs/sec", "hash"});
  lanes.add_row({"1", fmt_u64(seq.messages), fmt_u64(seq.spills),
                 fmt_sci(seq.msgs_per_sec, 3), fmt_u64(seq.hash)});
  lanes.add_row({fmt_u64(bench::sim_threads()), fmt_u64(par.messages),
                 fmt_u64(par.spills), fmt_sci(par.msgs_per_sec, 3),
                 fmt_u64(par.hash)});
  bench::print_table(
      lanes,
      "cross-shard messages through the per-thread lanes, 32 shards x 4\n"
      "actors (hashes must match across thread counts; spill counts are\n"
      "wall-clock-side and may differ):");
  if (seq.hash != par.hash) {
    std::cerr << "FATAL: lane hash mismatch across thread counts\n";
    return 1;
  }
  if (seq.messages != par.messages) {
    std::cerr << "FATAL: lane message count depends on thread count\n";
    return 1;
  }

  // --- machine-readable summary -------------------------------------------
  std::cout << "SCALE_JSON {"
            << "\"construct_ms_100k\": " << big.construct_ms
            << ", \"state_bytes_per_endpoint_100k\": " << big.state_b_per_ep
            << ", \"rss_mb_100k\": " << big.rss_mb
            << ", \"route_ns_100k\": " << big.route_ns
            << ", \"route_ns_dense_64\": " << dense_ns
            << ", \"route_ns_implicit_64\": " << implicit_ns
            << ", \"lane_msgs_per_sec\": " << par.msgs_per_sec
            << ", \"lane_hash_match\": " << (seq.hash == par.hash ? 1 : 0)
            << "}\n";
  return 0;
}
