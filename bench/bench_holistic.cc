// EXP-APP-holistic — the whole stack on one application (paper abstract:
// "ECOSCALE tackles these challenges by proposing a scalable programming
// environment and architecture, aiming to substantially reduce energy
// consumption as well as data traffic and latency" — a *holistic* claim,
// so this harness measures the cumulative effect of every mechanism).
//
// Application: an iterative solver on 4 Compute Nodes x 4 Workers. Each
// iteration runs a burst of mixed kernels per worker (Zipf-skewed load),
// then a halo exchange and an allreduce. The feature ladder switches on
// one ECOSCALE mechanism at a time, cumulatively:
//   L0 baseline   : software-only, no balancing, pure-MPI communication,
//                   full-region uncompressed bitstreams
//   L1 +offload   : learned-model HW/SW placement
//   L2 +UNILOGIC  : fabric sharing across the node
//   L3 +lazy      : lazy local-queue work distribution
//   L4 +PR opt    : bounding-box + LZ-compressed bitstreams
//   L5 +hybrid    : intra-node halo traffic over UNIMEM instead of MPI
//
// A second section runs the same style of application on the sharded
// engine (runtime/sharded.h): 8 Compute Nodes, each a private shard,
// exchanging forwarded tasks through the sharded engine. Its combined
// result hash must equal a pinned literal (deterministic merge); the
// wall-clock time goes to stderr.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "hls/dse.h"
#include "mpi/mpi.h"
#include "runtime/scheduler.h"
#include "runtime/sharded.h"

namespace ecoscale {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kWorkersPerNode = 4;
constexpr std::size_t kWorkers = kNodes * kWorkersPerNode;
constexpr int kIterations = 10;
constexpr Bytes kHalo = kibibytes(32);

struct AppConfig {
  std::string name;
  PlacementPolicy placement = PlacementPolicy::kAlwaysSoftware;
  bool share_fabric = false;
  DistributionPolicy distribution = DistributionPolicy::kHomeOnly;
  BitstreamMode bitstream = BitstreamMode::kFullRegion;
  CompressionMode compression = CompressionMode::kNone;
  bool hybrid_comm = false;
};

struct AppOutcome {
  double makespan_ms = 0.0;
  double energy_mj = 0.0;
  double hw_frac = 0.0;
};

AppOutcome run_app(const AppConfig& app) {
  MachineConfig mc;
  mc.nodes = kNodes;
  mc.workers_per_node = kWorkersPerNode;
  mc.worker.fabric.bitstream_mode = app.bitstream;
  mc.worker.fabric.compression = app.compression;
  Machine machine(mc);
  Simulator sim;
  RuntimeConfig rc;
  rc.placement = app.placement;
  rc.share_fabric = app.share_fabric;
  rc.distribution = app.distribution;
  RuntimeSystem runtime(machine, sim, rc);
  const std::vector<KernelIR> kernels = {
      make_stencil5_kernel(), make_montecarlo_kernel(),
      make_spmv_kernel()};
  for (const auto& k : kernels) {
    runtime.register_kernel(k, emit_variants(k, 2));
  }

  Rng rng(0xA99);
  SimTime epoch = 0;
  TaskId next_id = 1;
  Picojoules comm_energy = 0.0;
  // Per-worker halo buffers for the hybrid communication path.
  std::vector<GlobalAddress> halo_bufs;
  if (app.hybrid_comm) {
    for (std::size_t b = 0; b < kWorkers; ++b) {
      halo_bufs.push_back(machine.pgas().alloc(
          static_cast<NodeId>(b / kWorkersPerNode),
          static_cast<WorkerId>(b % kWorkersPerNode), mebibytes(1)));
    }
  }
  for (int iter = 0; iter < kIterations; ++iter) {
    // --- compute phase: 3 tasks per worker, Zipf-skewed across workers.
    for (std::size_t i = 0; i < 3 * kWorkers; ++i) {
      Task t;
      t.id = next_id++;
      const auto& k = kernels[rng.uniform_u64(kernels.size())];
      t.kernel = k.id;
      t.items = 30000 + rng.uniform_u64(120000);
      t.features.items = static_cast<double>(t.items);
      t.features.bytes =
          static_cast<double>(t.items * (k.bytes_in + k.bytes_out));
      const std::size_t w = rng.zipf(kWorkers, 0.8);
      t.home = WorkerCoord{static_cast<NodeId>(w / kWorkersPerNode),
                           static_cast<WorkerId>(w % kWorkersPerNode)};
      t.release = epoch;
      runtime.submit(t);
    }
    runtime.run();
    SimTime compute_done = epoch;
    for (const auto& r : runtime.results()) {
      compute_done = std::max(compute_done, r.finished);
    }

    // --- halo exchange over the 4x4 worker grid.
    SimTime halo_done = compute_done;
    CartTopology grid({4, 4}, false);
    auto node_of = [](std::size_t rank) {
      return static_cast<NodeId>(rank / kWorkersPerNode);
    };
    for (std::size_t r = 0; r < grid.size(); ++r) {
      for (const std::size_t peer : grid.neighbors(r)) {
        if (app.hybrid_comm && node_of(r) == node_of(peer)) {
          // UNIMEM store into the neighbour's halo buffer.
          const auto m = machine.pgas().dma(
              {node_of(r), static_cast<WorkerId>(r % kWorkersPerNode)},
              halo_bufs[peer], kHalo, /*write=*/true, compute_done);
          halo_done = std::max(halo_done, m.finish);
        } else {
          const auto m = machine.mpi().send(node_of(r), node_of(peer),
                                            kHalo, compute_done);
          halo_done = std::max(halo_done, m.delivered);
        }
      }
    }

    // --- residual allreduce between nodes.
    std::vector<SimTime> arrivals(kNodes, halo_done);
    const auto red = machine.mpi().allreduce(64, arrivals);
    comm_energy += red.energy;
    epoch = std::max(red.finish, sim.now());
    sim.run_until(epoch);
    // All of next iteration's work is released at `epoch`, so the calendar
    // resources can retire everything before it (keeps reserve() cheap over
    // long runs).
    machine.release(epoch);
  }

  AppOutcome out;
  out.makespan_ms = to_milliseconds(epoch);
  out.energy_mj = to_millijoules(machine.total_energy() + comm_energy);
  const auto s = runtime.stats();
  out.hw_frac = static_cast<double>(s.hw_tasks) /
                static_cast<double>(s.hw_tasks + s.sw_tasks);
  return out;
}

// --- sharded multi-node run ------------------------------------------------

/// FNV-1a over the observable outcome of a sharded run (task results,
/// machine energy, engine counters) — the determinism witness.
struct OutcomeHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_double(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
};

/// Per-node epoch generator: UNIMEM traffic + local tasks + one forwarded
/// task per epoch, the same mixed workload shape as the ctest determinism
/// case but sized for a perf measurement.
struct NodeGenerator {
  ShardedRuntime* rt = nullptr;
  std::size_t node = 0;
  std::size_t nodes = 0;
  std::size_t workers = 0;
  int epochs_left = 0;
  TaskId next_id = 0;
  Rng rng{0};
  GlobalAddress buf{};
  OutcomeHash* hash = nullptr;
  const std::vector<KernelIR>* kernels = nullptr;

  Task make_task(SimTime release) {
    Task t;
    t.id = next_id++;
    const KernelIR& k = (*kernels)[rng.uniform_u64(kernels->size())];
    t.kernel = k.id;
    t.items = 2000 + rng.uniform_u64(8000);
    t.features.items = static_cast<double>(t.items);
    t.features.bytes =
        static_cast<double>(t.items * (k.bytes_in + k.bytes_out));
    t.home = WorkerCoord{0, static_cast<WorkerId>(rng.uniform_u64(workers))};
    t.release = release;
    return t;
  }

  void fire() {
    Simulator& sim = rt->shard(node);
    PgasSystem& pgas = rt->machine(node).pgas();
    const auto who =
        WorkerCoord{0, static_cast<WorkerId>(rng.uniform_u64(workers))};
    const auto ld = pgas.load(who, buf, 256, sim.now());
    const auto st = pgas.store(who, buf, 128, ld.finish);
    hash->mix(ld.finish);
    hash->mix(st.finish);
    for (int i = 0; i < 2; ++i) rt->submit(node, make_task(sim.now()));
    if (nodes > 1) {
      const std::size_t to = (node + 1 + rng.uniform_u64(nodes - 1)) % nodes;
      rt->post_task(node, to, make_task(0));
    }
    if (--epochs_left > 0) {
      sim.schedule_after(microseconds(30), [this] { fire(); });
    }
  }
};

struct ShardedOutcome {
  double makespan_ms = 0.0;
  double energy_mj = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  double wall_s = 0.0;
};

/// run_sharded(kShardedEpochs)'s hash, re-pinned when events were keyed by
/// (time, origin, counter) (ROADMAP item 9: canonical event key).
constexpr int kShardedEpochs = 60;
constexpr std::uint64_t kShardedHash = 1063476874224826077ull;

ShardedOutcome run_sharded(int epochs) {
  ShardedRuntimeConfig cfg;
  cfg.nodes = 8;
  cfg.workers_per_node = 2;
  cfg.runtime.placement = PlacementPolicy::kModelBased;
  cfg.runtime.share_fabric = true;
  cfg.runtime.distribution = DistributionPolicy::kLazyLocal;
  ShardedRuntime rt(cfg);
  const std::vector<KernelIR> kernels = {make_stencil5_kernel(),
                                         make_spmv_kernel()};
  for (const auto& k : kernels) rt.register_kernel(k, emit_variants(k, 2));

  std::vector<OutcomeHash> hashes(cfg.nodes);
  std::vector<std::unique_ptr<NodeGenerator>> gens;
  for (std::size_t node = 0; node < cfg.nodes; ++node) {
    gens.push_back(std::make_unique<NodeGenerator>());
    NodeGenerator& g = *gens.back();
    g.rt = &rt;
    g.node = node;
    g.nodes = cfg.nodes;
    g.workers = cfg.workers_per_node;
    g.epochs_left = epochs;
    g.next_id = 1 + node * 1000000;
    g.rng = Rng(0x5EED + node);
    g.buf = rt.machine(node).pgas().alloc(0, 0, kibibytes(64));
    g.hash = &hashes[node];
    g.kernels = &kernels;
    rt.shard(node).schedule_at(static_cast<SimTime>(1 + node),
                               [&g] { g.fire(); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  rt.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  OutcomeHash combined;
  for (std::size_t node = 0; node < cfg.nodes; ++node) {
    combined.mix(hashes[node].h);
    for (const TaskResult& r : rt.runtime(node).results()) {
      combined.mix(r.id);
      combined.mix(r.started);
      combined.mix(r.finished);
      combined.mix(static_cast<std::uint64_t>(r.device));
      combined.mix(r.executed_on);
      combined.mix_double(r.energy);
    }
    combined.mix_double(rt.machine(node).total_energy());
  }
  const ShardedRuntime::Stats s = rt.stats();
  combined.mix(s.makespan);
  combined.mix(s.events);
  combined.mix(s.windows);
  combined.mix(s.cross_posts);

  ShardedOutcome out;
  out.makespan_ms = to_milliseconds(s.makespan);
  out.energy_mj = to_millijoules(s.energy);
  out.tasks = s.tasks;
  out.cross_posts = s.cross_posts;
  out.runs = s.windows;
  out.events = s.events;
  out.hash = combined.h;
  out.wall_s = wall;
  return out;
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  bench::init(argc, argv);
  bench::print_header("EXP-APP-holistic",
                      "cumulative effect of every ECOSCALE mechanism on "
                      "one application (abstract's holistic claim)");

  std::vector<AppConfig> ladder(6);
  ladder[0].name = "L0 baseline (SW, flat)";
  ladder[1] = ladder[0];
  ladder[1].name = "L1 +model offload";
  ladder[1].placement = PlacementPolicy::kModelBased;
  ladder[2] = ladder[1];
  ladder[2].name = "L2 +UNILOGIC sharing";
  ladder[2].share_fabric = true;
  ladder[3] = ladder[2];
  ladder[3].name = "L3 +lazy distribution";
  ladder[3].distribution = DistributionPolicy::kLazyLocal;
  ladder[4] = ladder[3];
  ladder[4].name = "L4 +PR bbox+LZ";
  ladder[4].bitstream = BitstreamMode::kBoundingBox;
  ladder[4].compression = CompressionMode::kLz;
  ladder[5] = ladder[4];
  ladder[5].name = "L5 +hybrid MPI/PGAS";
  ladder[5].hybrid_comm = true;

  Table t({"configuration", "makespan", "energy", "HW fraction",
           "vs baseline (time)", "vs baseline (energy)"});
  // Each ladder rung owns its own Machine + Simulator, so the rungs run on
  // the sweep pool; the baseline comparison happens after the barrier.
  const auto outcomes = bench::parallel_sweep(
      ladder.size(), [&](std::size_t i) { return run_app(ladder[i]); });
  const AppOutcome& base = outcomes[0];
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& out = outcomes[i];
    t.add_row({ladder[i].name, fmt_fixed(out.makespan_ms, 2) + " ms",
               fmt_fixed(out.energy_mj, 2) + " mJ", fmt_pct(out.hw_frac),
               fmt_ratio(base.makespan_ms / out.makespan_ms),
               fmt_ratio(base.energy_mj / out.energy_mj)});
  }
  bench::print_table(
      t,
      "10-iteration solver on 4 nodes x 4 workers: mixed kernels + halo\n"
      "exchange + allreduce per iteration. Each rung switches on one more\n"
      "ECOSCALE mechanism, cumulatively:");

  // --- sharded multi-node run ---------------------------------------------
  run_sharded(kShardedEpochs / 6);  // warm-up
  const auto sharded = run_sharded(kShardedEpochs);
  // stdout stays fully deterministic (the byte-identical-output check in
  // CI/verification): only simulated quantities and hashes in the table;
  // wall-clock time goes to stderr.
  Table sh({"run", "tasks", "cross posts", "runs", "events", "makespan",
            "hash"});
  sh.add_row({"sharded", fmt_u64(sharded.tasks),
              fmt_u64(sharded.cross_posts), fmt_u64(sharded.runs),
              fmt_u64(sharded.events),
              fmt_fixed(sharded.makespan_ms, 3) + " ms",
              fmt_u64(sharded.hash)});
  bench::print_table(
      sh,
      "same application on the sharded engine: 8 Compute Nodes (one shard\n"
      "each, 2 workers), UNIMEM + UNILOGIC work per node plus one forwarded\n"
      "task per node per epoch. The hash is pinned:");
  if (sharded.hash != kShardedHash) {
    std::cerr << "FATAL: sharded runtime hash " << sharded.hash
              << " differs from the pinned " << kShardedHash << "\n";
    return 1;
  }
  std::cerr << "sharded wall: " << fmt_fixed(sharded.wall_s * 1e3, 1)
            << " ms\n"
            << "HOLISTIC_JSON {"
            << "\"sharded_wall_s\": " << sharded.wall_s
            << ", \"sharded_tasks\": " << sharded.tasks << "}\n";
  return 0;
}
