// ecobench — end-to-end benchmark of the simulator stack; the metrics,
// workloads and bounds are defined in bench/e2e/README.md.
//
// One process runs one workload through the public APIs only
// (ShardedRuntime, KvStore, LoadGen, Repartitioner, GraphEngine,
// ShardedSimulator):
//
//   kv_open      open-loop Zipfian KV serving just under the knee
//   kv_phase     closed-loop, write-heavy KV with the reactive repartitioner
//   graph        BFS + PageRank + CC over UNIMEM (no engine, no scheduler)
//   engine_mesh  the bare sharded engine: cross-posting actor mesh
//
// Protocol: one untimed warm-up rep at 1 sim thread, then timed reps
// interleaved 5:3 between 1 and 4 sim threads until at least 5 + 3 have
// run, then alternating so both thread counts get equal host time, until
// --seconds have passed; each timed rep is followed by five reps that stop
// after set-up. Every rep builds the workload from scratch (timed as
// set-up), runs it (timed as the run phase), then checks its outputs; every
// rep at both thread counts must produce the same fingerprint. Simulated
// metrics are deterministic and come from the first timed rep. Host-time
// spans wrap every call this file makes into a layer; with --trace <path>
// one extra traced 1-thread rep also runs the program's own
// obs::TraceSession and writes both span sets as one Chrome trace.
//
// Output: one `ECOBENCH_JSON {...}` line. The exit code is nonzero when any
// output check failed.
//
//   ecobench --workload kv_open [--seed 1] [--seconds 10] [--trace out.json]
//   ecobench --smoke        all four workloads at ~1/20 size, checks on
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/latency.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "repart/repart.h"
#include "runtime/machine.h"
#include "runtime/sharded.h"
#include "serve/graph.h"
#include "serve/kvstore.h"
#include "serve/latency.h"
#include "serve/loadgen.h"
#include "sim/parallel.h"

namespace ecobench {
namespace {

using namespace ecoscale;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();

double host_now() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Workload inputs derive from the benchmark seed only.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + salt);
  return rng();
}

// --- host-time spans ---------------------------------------------------------

/// Host-time spans (name, start, end, parent) around the calls this file
/// makes into each layer. Names are "<layer>.<call>"; every rep records
/// them (a steady_clock read per boundary), the traced rep exports them.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), host_now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes span `id` (the innermost open one); returns its seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = host_now();
    stack_.pop_back();
    return s.end - s.start;
  }
  template <typename F>
  void time(std::string name, F&& call) {
    const int id = open(std::move(name));
    call();
    close(id);
  }

  /// Seconds in the spans named `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end - s.start;
    }
    return sum;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- one rep -----------------------------------------------------------------

struct Rep {
  std::size_t threads = 1;       // sim threads asked for
  std::size_t threads_used = 1;  // engine threads that ran (0: no engine)
  Spans spans;
  double setup_s = 0.0;
  double run_s = 0.0;
  double event_cpu_s = 0.0;  // shard_wall_time_ns: CPU time retiring events
  std::uint64_t steals = 0;
  std::uint64_t fingerprint = kFnvOffset;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Simulated / deterministic outputs by metric name.
  std::map<std::string, double> sim;
};

void fail(Rep& rep, const std::string& what) { rep.failures.push_back(what); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Workload sizes. A full rep takes 0.1-1.5 s on a 4-core host, so a
/// run of --seconds 15 holds several reps at each thread count; --smoke
/// scales every size by about 1/20.
struct Sizes {
  std::size_t kv_open_requests_per_node = 4000;
  std::size_t kv_phase_requests_per_client = 3000;
  std::size_t graph_vertices = 2048;
  std::uint64_t mesh_fires_per_actor = 25000;
};
constexpr Sizes kFull{};
constexpr Sizes kSmoke{200, 150, 128, 1250};

constexpr std::size_t kNodes = 8;
constexpr std::size_t kWorkersPerNode = 4;
constexpr double kKvOpenLoad = 1.0e6;

// --- KV workloads ------------------------------------------------------------

/// Replays every node's apply log per key, in apply-time order, on a plain
/// map: a GET must return the last SET (absent after a DELETE), a DELETE
/// must see the key's presence. Returns the records that disagree.
std::uint64_t kv_oracle_mismatches(const serve::KvStore& kv,
                                   std::size_t nodes) {
  std::vector<const serve::KvApplyRecord*> recs;
  for (std::size_t n = 0; n < nodes; ++n) {
    for (const serve::KvApplyRecord& r : kv.apply_log(n)) recs.push_back(&r);
  }
  std::sort(recs.begin(), recs.end(),
            [](const serve::KvApplyRecord* a, const serve::KvApplyRecord* b) {
              if (a->key != b->key) return a->key < b->key;
              if (a->at != b->at) return a->at < b->at;
              return a->request < b->request;
            });
  std::uint64_t mismatches = 0;
  bool present = false;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const serve::KvApplyRecord& r = *recs[i];
    if (i == 0 || recs[i - 1]->key != r.key) {
      present = false;
      value = 0;
    }
    switch (r.op) {
      case serve::KvOp::kGet:
        if (r.found != present || r.returned != (present ? value : 0)) {
          ++mismatches;
        }
        break;
      case serve::KvOp::kSet:
        present = true;
        value = r.value;
        break;
      case serve::KvOp::kDelete:
        if (r.found != present) ++mismatches;
        present = false;
        break;
    }
  }
  return mismatches;
}

struct KvParams {
  bool phase = false;  // kv_phase; otherwise kv_open
  double offered_load = kKvOpenLoad;
  std::size_t requests = 0;  // kv_open: per node; kv_phase: per client
};

Rep run_kv(const KvParams& p, std::size_t threads, std::uint64_t seed,
           bool setup_only) {
  Rep rep;
  rep.threads = threads;
  Spans& sp = rep.spans;
  const int root = sp.open("rep");

  const int setup = sp.open("setup");
  ShardedRuntimeConfig rc;
  rc.nodes = kNodes;
  rc.workers_per_node = kWorkersPerNode;
  rc.threads = threads;
  rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
  rc.runtime.distribution = DistributionPolicy::kHomeOnly;
  serve::KvConfig kc;
  serve::LoadGenConfig lg;
  lg.seed = derive_seed(seed, 0x4B56);
  if (p.phase) {
    // The bench_repart phase-rotation scenario, reactive side.
    rc.internode_radices = {4, 2};
    rc.runtime.repartition_epoch = microseconds(30);
    rc.runtime.repartition_max_moves = 64;
    rc.runtime.repartition_imbalance = 0.5;
    rc.runtime.repartition_alpha = 0.7;
    rc.runtime.repartition_cooldown = 2;
    rc.runtime.repartition_min_gain = 128;
    kc.key_space = 1ull << 13;
    kc.value_bytes = 256;
    kc.service_items = 600;
    kc.repart_blocks = 64;
    lg.mode = serve::LoadGenConfig::Mode::kClosedLoop;
    lg.clients_per_node = 3;
    lg.requests_per_client = p.requests;
    lg.zipf_skew = 0.9;
    lg.origin_affinity = 0.9;
    lg.phase_period = microseconds(400);
    lg.get_fraction = 0.48;  // 48% GET, 2% DELETE, 50% SET
  } else {
    rc.runtime.admission_limit = 64;
    kc.key_space = 1ull << 14;
    kc.value_bytes = 64;
    kc.service_items = 2000;
    lg.mode = serve::LoadGenConfig::Mode::kOpenLoop;
    lg.offered_load = p.offered_load;
    lg.requests_per_node = p.requests;
    lg.zipf_skew = 0.99;
  }
  std::unique_ptr<ShardedRuntime> rt;
  std::unique_ptr<serve::KvStore> kv;
  std::unique_ptr<repart::Repartitioner> rp;
  std::unique_ptr<serve::LoadGen> gen;
  sp.time("runtime.setup", [&] { rt = std::make_unique<ShardedRuntime>(rc); });
  sp.time("serve.store_setup",
          [&] { kv = std::make_unique<serve::KvStore>(*rt, kc); });
  if (p.phase) {
    sp.time("repart.setup", [&] {
      rp = std::make_unique<repart::Repartitioner>(
          *rt, kc.repart_blocks, kv->initial_block_owners());
      kv->attach_repartitioner(rp.get());
      rp->install();
    });
  }
  sp.time("serve.loadgen_setup", [&] {
    gen = std::make_unique<serve::LoadGen>(*rt, *kv, lg);
    gen->start();
  });
  rep.setup_s = sp.close(setup);
  if (setup_only) return rep;

  const int run = sp.open("run");
  sp.time("runtime.run", [&] { rt->run(); });
  rep.run_s = sp.close(run);

  const int collect = sp.open("collect");
  serve::LoadGen::Report report;
  serve::KvStore::CrossStats cross;
  ShardedRuntime::Stats rs;
  sp.time("serve.report", [&] {
    report = gen->report();
    cross = kv->cross_stats();
  });
  sp.time("runtime.stats", [&] { rs = rt->stats(); });
  LatencyHistogram queue_wait;
  LatencyHistogram turnaround;
  std::uint64_t forwarded = 0;
  std::uint64_t local = 0, remote = 0, retries = 0, packets = 0, hops = 0;
  sp.time("runtime.results", [&] {
    for (std::size_t n = 0; n < rt->node_count(); ++n) {
      for (const TaskResult& r : rt->runtime(n).results()) {
        queue_wait.record(r.queue_wait());
        turnaround.record(r.turnaround());
        forwarded += r.forwarded ? 1 : 0;
      }
    }
  });
  sp.time("unimem.counters", [&] {
    for (std::size_t n = 0; n < rt->node_count(); ++n) {
      PgasSystem& pgas = rt->machine(n).pgas();
      local += pgas.local_accesses();
      remote += pgas.remote_accesses();
      retries += pgas.remote_retries();
      packets += pgas.network().total_packets();
      hops += pgas.network().byte_hops();
    }
  });
  sp.time("sim.counters", [&] {
    rep.threads_used = rt->engine().threads_used();
    rep.event_cpu_s =
        static_cast<double>(rt->engine().shard_wall_time_ns()) / 1e9;
  });
  sp.close(collect);
  rep.steals = rs.steals;

  const int check = sp.open("check");
  std::uint64_t applied = 0;
  for (std::size_t n = 0; n < rt->node_count(); ++n) {
    applied += kv->apply_log(n).size();
  }
  std::uint64_t mismatches = 0;
  sp.time("check.kv_oracle",
          [&] { mismatches = kv_oracle_mismatches(*kv, rt->node_count()); });
  if (report.issued != report.completed + report.shed) {
    fail(rep, "kv: issued != completed + shed");
  }
  if (applied != report.completed) fail(rep, "kv: applied != completed");
  if (mismatches != 0) {
    fail(rep, "kv: " + std::to_string(mismatches) +
                  " apply records disagree with the replayed map");
  }
  if (p.phase && (rp == nullptr || rp->stats().moves == 0)) {
    fail(rep, "kv_phase: the repartitioner migrated no block");
  }
  sp.close(check);
  sp.close(root);

  const repart::Repartitioner::Stats plan =
      rp != nullptr ? rp->stats() : repart::Repartitioner::Stats{};
  rep.attempted = report.issued;
  rep.failed = report.shed + mismatches;
  rep.fingerprint = fnv(report.fingerprint, plan.plan_fingerprint);

  const serve::TailSummary tail = serve::summarize(report.latency);
  auto& m = rep.sim;
  m["sim_makespan_us"] = static_cast<double>(report.last_completion) / 1e6;
  m["sim.events"] = static_cast<double>(rs.events);
  m["sim.rounds"] = static_cast<double>(rs.windows);
  m["sim.shard_windows"] = static_cast<double>(rs.shard_windows);
  m["sim.stalled_shard_windows"] =
      static_cast<double>(rs.stalled_shard_windows);
  m["sim.cross_msgs"] = static_cast<double>(rs.cross_posts);
  m["sim.mailbox_spills"] = static_cast<double>(rs.mailbox_spills);
  m["runtime.tasks"] = static_cast<double>(rs.tasks);
  m["runtime.shed_tasks"] = static_cast<double>(rs.shed_tasks);
  m["runtime.forwarded_tasks"] = static_cast<double>(forwarded);
  m["runtime.queue_wait_p50_us"] =
      static_cast<double>(queue_wait.percentile(50.0)) / 1e6;
  m["runtime.queue_wait_p99_us"] =
      static_cast<double>(queue_wait.percentile(99.0)) / 1e6;
  m["runtime.turnaround_p99_us"] =
      static_cast<double>(turnaround.percentile(99.0)) / 1e6;
  m["serve.requests"] = static_cast<double>(report.issued);
  m["serve.completed"] = static_cast<double>(report.completed);
  m["serve.shed"] = static_cast<double>(report.shed);
  m["serve.p50_us"] = tail.p50_ns / 1e3;
  m["serve.p99_us"] = tail.p99_ns / 1e3;
  m["serve.p999_us"] = tail.p999_ns / 1e3;
  m["serve.latency_samples"] = static_cast<double>(tail.count);
  m["serve.goodput_rps"] =
      serve::goodput_per_sec(report.completed, report.last_completion);
  m["serve.fail_frac"] = ratio(static_cast<double>(rep.failed),
                               static_cast<double>(report.issued));
  m["serve.remote_issues"] = static_cast<double>(cross.remote_issues);
  m["serve.forwards"] = static_cast<double>(cross.forwards);
  m["serve.byte_hops"] = static_cast<double>(cross.byte_hops);
  m["repart.epochs"] = static_cast<double>(plan.epochs);
  m["repart.moves"] = static_cast<double>(plan.moves);
  m["repart.moved_bytes"] = static_cast<double>(plan.moved_bytes);
  m["repart.move_byte_hops"] = static_cast<double>(plan.move_byte_hops);
  m["repart.remote_frac"] = ratio(static_cast<double>(cross.remote_issues),
                                  static_cast<double>(report.issued));
  m["repart.last_imbalance"] = plan.last_imbalance;
  m["unimem.local_accesses"] = static_cast<double>(local);
  m["unimem.remote_accesses"] = static_cast<double>(remote);
  m["unimem.remote_retries"] = static_cast<double>(retries);
  m["interconnect.packets"] = static_cast<double>(packets);
  m["interconnect.byte_hops"] = static_cast<double>(hops);
  return rep;
}

// --- graph workload ----------------------------------------------------------

constexpr std::uint32_t kBfsSource = 0;
constexpr std::size_t kPagerankIterations = 8;

/// The functional references of one graph, computed once per process.
struct GraphReference {
  std::vector<std::uint32_t> bfs;
  std::vector<double> pagerank;
  std::vector<std::uint32_t> cc;
};

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
std::uint64_t fnv_vector(std::uint64_t h, const std::vector<T>& v) {
  for (const T& x : v) {
    std::uint64_t word = 0;
    std::memcpy(&word, &x, sizeof(T));
    h = fnv(h, word);
  }
  return h;
}

Rep run_graph(std::size_t vertices, std::size_t threads, std::uint64_t seed,
              bool setup_only, std::unique_ptr<GraphReference>& ref) {
  Rep rep;
  rep.threads = threads;  // the graph engine takes no thread count
  rep.threads_used = 0;
  Spans& sp = rep.spans;
  const int root = sp.open("rep");

  const int setup = sp.open("setup");
  serve::CsrGraph graph;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<serve::GraphEngine> eng;
  sp.time("serve.graph_generate", [&] {
    graph = serve::make_skewed_graph(vertices, 6.0, 0.8,
                                     derive_seed(seed, 0x6AF));
  });
  sp.time("runtime.machine_setup", [&] {
    MachineConfig mc;
    mc.nodes = kNodes;
    mc.workers_per_node = kWorkersPerNode;
    machine = std::make_unique<Machine>(mc);
  });
  sp.time("serve.graph_layout", [&] {
    eng = std::make_unique<serve::GraphEngine>(*machine, graph);
  });
  rep.setup_s = sp.close(setup);
  if (setup_only) return rep;

  const int run = sp.open("run");
  serve::BfsResult bfs;
  serve::PagerankResult pr;
  serve::CcResult cc;
  sp.time("serve.graph_bfs", [&] { bfs = eng->bfs(kBfsSource); });
  sp.time("serve.graph_pagerank",
          [&] { pr = eng->pagerank(kPagerankIterations); });
  sp.time("serve.graph_cc", [&] { cc = eng->connected_components(); });
  rep.run_s = sp.close(run);

  const int collect = sp.open("collect");
  std::uint64_t local = 0, remote = 0, retries = 0, packets = 0, hops = 0;
  sp.time("unimem.counters", [&] {
    PgasSystem& pgas = machine->pgas();
    local = pgas.local_accesses();
    remote = pgas.remote_accesses();
    retries = pgas.remote_retries();
    packets = pgas.network().total_packets();
    hops = pgas.network().byte_hops();
  });
  sp.close(collect);

  const int check = sp.open("check");
  if (ref == nullptr) {
    sp.time("check.graph_reference", [&] {
      ref = std::make_unique<GraphReference>();
      ref->bfs = serve::reference_bfs(graph, kBfsSource);
      ref->pagerank = serve::reference_pagerank(graph, kPagerankIterations);
      ref->cc = serve::reference_cc(graph);
    });
  }
  rep.attempted = 3;
  if (!bitwise_equal(bfs.dist, ref->bfs)) {
    fail(rep, "graph: BFS differs from reference_bfs");
    ++rep.failed;
  }
  if (!bitwise_equal(pr.rank, ref->pagerank)) {
    fail(rep, "graph: PageRank differs from reference_pagerank");
    ++rep.failed;
  }
  if (!bitwise_equal(cc.label, ref->cc)) {
    fail(rep, "graph: CC differs from reference_cc");
    ++rep.failed;
  }
  sp.close(check);
  sp.close(root);

  std::uint64_t h = kFnvOffset;
  h = fnv_vector(h, bfs.dist);
  h = fnv_vector(h, pr.rank);
  h = fnv_vector(h, cc.label);
  std::uint64_t edge_reads = 0, remote_reads = 0;
  SimTime makespan = 0;
  for (const serve::GraphStats* s : {&bfs.stats, &pr.stats, &cc.stats}) {
    h = fnv(h, s->iterations);
    h = fnv(h, static_cast<std::uint64_t>(s->time));
    h = fnv(h, s->edge_reads);
    h = fnv(h, s->byte_hops);
    edge_reads += s->edge_reads;
    remote_reads += s->remote_edge_reads;
    makespan += s->time;
  }
  rep.fingerprint = h;

  auto& m = rep.sim;
  m["sim_makespan_us"] = static_cast<double>(makespan) / 1e6;
  m["serve.graph_edge_reads"] = static_cast<double>(edge_reads);
  m["serve.graph_remote_frac"] = ratio(static_cast<double>(remote_reads),
                                       static_cast<double>(edge_reads));
  m["unimem.local_accesses"] = static_cast<double>(local);
  m["unimem.remote_accesses"] = static_cast<double>(remote);
  m["unimem.remote_retries"] = static_cast<double>(retries);
  m["interconnect.packets"] = static_cast<double>(packets);
  m["interconnect.byte_hops"] = static_cast<double>(hops);
  return rep;
}

// --- engine mesh -------------------------------------------------------------

/// The bench_simcore cross-posting mesh on adaptive windows: 8 shards x 16
/// self-rescheduling actors; one fire in four posts to another shard at
/// now + lookahead + jitter. The seed salts which fires post, where, and
/// each actor's start time.
Rep run_mesh(std::uint64_t fires, std::size_t threads, std::uint64_t seed,
             bool setup_only) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kActorsPerShard = 16;
  Rep rep;
  rep.threads = threads;
  Spans& sp = rep.spans;
  const int root = sp.open("rep");

  const int setup = sp.open("setup");
  std::unique_ptr<ShardedSimulator> engine;
  // Per-shard FNV accumulators; each shard's actions touch only their own.
  std::vector<std::uint64_t> hashes(kShards, kFnvOffset);
  struct Actor {
    ShardedSimulator* engine;
    std::uint64_t* hashes;
    std::size_t shard;
    std::uint64_t id;
    std::uint64_t salt;
    std::uint64_t left;
    SimDuration period;
    void fire() {
      hashes[shard] =
          fnv(hashes[shard], engine->shard(shard).now() ^ (id * 0x9e3779b9u));
      if (left == 0) return;
      --left;
      const std::uint64_t token =
          (((id << 32) ^ left) * 0x9e3779b97f4a7c15ull) ^ salt;
      if (token % 4 == 0) {
        const std::size_t dst =
            (shard + 1 + (token >> 8) % (kShards - 1)) % kShards;
        const SimTime at = engine->shard(shard).now() + engine->lookahead() +
                           (token >> 16) % 64;
        std::uint64_t* hs = hashes;
        engine->post(shard, dst, at,
                     [hs, dst, token] { hs[dst] = fnv(hs[dst], token); });
      }
      Actor* self = this;
      engine->shard(shard).schedule_after(period, [self] { self->fire(); });
    }
  };
  std::vector<Actor> actors;
  sp.time("sim.setup", [&] {
    ShardedConfig sc;
    sc.shards = kShards;
    sc.lookahead = 200;
    sc.threads = threads;
    sc.mailbox_capacity = 256;
    engine = std::make_unique<ShardedSimulator>(sc);
    Rng rng(derive_seed(seed, 0x3E5));
    const std::uint64_t salt = rng();
    actors.reserve(kShards * kActorsPerShard);
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::size_t a = 0; a < kActorsPerShard; ++a) {
        actors.push_back(Actor{engine.get(), hashes.data(), s,
                               s * kActorsPerShard + a, salt, fires,
                               static_cast<SimDuration>(11 + 7 * a)});
      }
    }
    for (Actor& a : actors) {
      Actor* self = &a;
      engine->shard(a.shard).schedule_at(1 + rng.uniform_u64(64),
                                         [self] { self->fire(); });
    }
  });
  rep.setup_s = sp.close(setup);
  if (setup_only) return rep;

  const int run = sp.open("run");
  sp.time("sim.run", [&] { engine->run(); });
  rep.run_s = sp.close(run);

  const int collect = sp.open("collect");
  std::uint64_t events = 0, messages = 0;
  sp.time("sim.counters", [&] {
    events = engine->events_processed();
    messages = engine->messages();
    rep.threads_used = engine->threads_used();
    rep.event_cpu_s = static_cast<double>(engine->shard_wall_time_ns()) / 1e9;
    rep.steals = engine->steals();
  });
  sp.close(collect);

  const std::uint64_t expected =
      kShards * kActorsPerShard * (fires + 1) + messages;
  rep.attempted = events;
  if (events != expected) {
    fail(rep, "engine_mesh: retired " + std::to_string(events) +
                  " events, expected " + std::to_string(expected));
    rep.failed = events;
  }
  sp.close(root);

  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t shard_hash : hashes) h = fnv(h, shard_hash);
  h = fnv(h, events);
  h = fnv(h, engine->windows());
  h = fnv(h, messages);
  rep.fingerprint = h;

  auto& m = rep.sim;
  m["sim_makespan_us"] = static_cast<double>(engine->now()) / 1e6;
  m["sim.events"] = static_cast<double>(events);
  m["sim.rounds"] = static_cast<double>(engine->windows());
  m["sim.shard_windows"] = static_cast<double>(engine->shard_windows());
  m["sim.stalled_shard_windows"] =
      static_cast<double>(engine->stalled_shard_windows());
  m["sim.cross_msgs"] = static_cast<double>(messages);
  m["sim.mailbox_spills"] = static_cast<double>(engine->mailbox_spills());
  return rep;
}

// --- workload dispatch -------------------------------------------------------

enum class Kind { kKvOpen, kKvPhase, kGraph, kMesh };

struct Workload {
  const char* name;
  Kind kind;
};
constexpr Workload kWorkloads[] = {{"kv_open", Kind::kKvOpen},
                                   {"kv_phase", Kind::kKvPhase},
                                   {"graph", Kind::kGraph},
                                   {"engine_mesh", Kind::kMesh}};

struct Runner {
  Kind kind;
  Sizes sizes;
  std::uint64_t seed;
  std::unique_ptr<GraphReference> graph_ref;

  /// One rep; `setup_only` stops it after the set-up phase.
  Rep rep(std::size_t threads, bool setup_only = false,
          double offered_load = kKvOpenLoad) {
    switch (kind) {
      case Kind::kKvOpen:
        return run_kv({false, offered_load, sizes.kv_open_requests_per_node},
                      threads, seed, setup_only);
      case Kind::kKvPhase:
        return run_kv({true, 0.0, sizes.kv_phase_requests_per_client}, threads,
                      seed, setup_only);
      case Kind::kGraph:
        return run_graph(sizes.graph_vertices, threads, seed, setup_only,
                         graph_ref);
      case Kind::kMesh:
        return run_mesh(sizes.mesh_fires_per_actor, threads, seed, setup_only);
    }
    return Rep{};
  }
};

// --- statistics and output ---------------------------------------------------

/// Reps summarized; `value` is the reported number, the median unless
/// fastest() picked the minimum.
struct Stat {
  double value = 0.0, median = 0.0, min = 0.0, max = 0.0;
  std::size_t n = 0;
};

Stat summarize(std::vector<double> v) {
  Stat s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  s.median = v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
  s.min = v.front();
  s.max = v.back();
  s.value = s.median;
  return s;
}

/// Run times report the fastest rep. This host's vCPUs switch between a
/// fast and a ~1.5x slower mode for seconds at a time (contention outside
/// the VM); a run's median flips with the mode it mostly saw, its minimum
/// does not.
Stat fastest(std::vector<double> v) {
  Stat s = summarize(std::move(v));
  s.value = s.min;
  return s;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// One reported metric. `kind` is "host" (measured wall time or memory,
/// summarized over `n` reps) or "sim" (deterministic, from the first rep);
/// a ratio names its denominator in `base`.
struct Metric {
  std::string name, unit, kind;
  Stat stat;
  std::string base;
};

class MetricSet {
 public:
  void host(const std::string& name, const std::string& unit, const Stat& s,
            const std::string& base = "") {
    metrics_.push_back({name, unit, "host", s, base});
  }
  void host(const std::string& name, const std::string& unit, double v,
            const std::string& base = "") {
    host(name, unit, Stat{v, v, v, v, 1}, base);
  }
  void sim(const std::string& name, const std::string& unit, double v,
           const std::string& base = "") {
    metrics_.push_back({name, unit, "sim", Stat{v, v, v, v, 1}, base});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? ", " : "") + json_str(m.name) + ": {\"value\": " +
             num(m.stat.value) + ", \"unit\": " + json_str(m.unit) +
             ", \"kind\": " + json_str(m.kind) + ", \"median\": " +
             num(m.stat.median) + ", \"min\": " +
             num(m.stat.min) + ", \"max\": " + num(m.stat.max) +
             ", \"reps\": " + std::to_string(m.stat.n);
      if (!m.base.empty()) out += ", \"base\": " + json_str(m.base);
      out += "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries it across exec, so it can report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0.0;
}

/// The sim-time Chrome trace of the running TraceSession with the traced
/// rep's host spans spliced in as their own process.
bool write_trace(const std::string& path, const Spans& spans) {
  std::ostringstream sim;
  obs::TraceSession::instance().export_json(sim);
  std::string doc = sim.str();
  const std::string key = "\"traceEvents\":[";
  const std::size_t at = doc.find(key);
  if (at == std::string::npos) return false;
  constexpr int kHostPid = 0x10000;  // above every uint16 sim pid
  const double t0 = spans.spans().empty() ? 0.0 : spans.spans().front().start;
  std::string host = "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                     std::to_string(kHostPid) +
                     ",\"args\":{\"name\":\"ecobench host time\"}}";
  for (const Spans::Span& s : spans.spans()) {
    const std::string parent =
        s.parent < 0
            ? ""
            : spans.spans()[static_cast<std::size_t>(s.parent)].name;
    host += ",\n{\"name\":" + json_str(s.name) +
            ",\"cat\":\"host\",\"ph\":\"X\",\"pid\":" +
            std::to_string(kHostPid) +
            ",\"tid\":0,\"ts\":" + num((s.start - t0) * 1e6) +
            ",\"dur\":" + num((s.end - s.start) * 1e6) +
            ",\"args\":{\"parent\":" + json_str(parent) + "}}";
  }
  const std::size_t body = at + key.size();
  const bool sim_events = body < doc.size() && doc[body] != ']';
  doc.insert(body, host + (sim_events ? "," : ""));
  std::ofstream out(path);
  out << doc;
  return static_cast<bool>(out);
}

// --- the benchmark -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::string trace;
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ecobench: " << why
            << "\nusage: ecobench --workload <kv_open|kv_phase|graph|"
               "engine_mesh> [--seed N] [--seconds S] [--trace PATH]\n"
               "       ecobench --smoke\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value();
      } else if (a == "--smoke") {
        o.smoke = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  return o;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Threads of the wide reps: 4, never more than the host has.
std::size_t wide_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}

/// Adds `rep`'s failures to `all`; a fingerprint that differs from the
/// first rep's is one more failure, and every operation of the rep counts
/// as failed.
void audit(Rep& rep, std::uint64_t reference, std::vector<std::string>& all,
           const char* label) {
  if (rep.fingerprint != reference) {
    fail(rep, std::string(label) + " rep at " + std::to_string(rep.threads) +
                  " sim threads: fingerprint differs from the warm-up rep");
    rep.failed = rep.attempted;
  }
  all.insert(all.end(), rep.failures.begin(), rep.failures.end());
}

int smoke() {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    Runner runner{w.kind, kSmoke, 1, nullptr};
    const double t0 = host_now();
    Rep one = runner.rep(1);
    Rep wide = runner.rep(wide_threads());
    std::vector<std::string> failures;
    audit(one, one.fingerprint, failures, w.name);
    audit(wide, one.fingerprint, failures, w.name);
    std::cout << "smoke " << w.name << ": "
              << (failures.empty() ? "ok" : "FAILED") << " ("
              << num(host_now() - t0) << " s, fingerprint " << std::hex
              << one.fingerprint << std::dec << ")\n";
    for (const std::string& f : failures) std::cout << "  " << f << "\n";
    ok = ok && failures.empty();
  }
  return ok ? 0 : 1;
}

/// kv_open's SLO rate: the highest rate on the ladder whose run meets p99
/// <= 250 us, no shed or failed request, and goodput >= 0.95 x offered.
double slo_max_rps(Runner& runner, std::vector<std::string>& failures) {
  double best = 0.0;
  for (const double rate : {0.5e6, 0.75e6, 1.0e6, 1.25e6, 1.5e6}) {
    Rep r = runner.rep(1, false, rate);
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    const bool meets = r.sim["serve.p99_us"] <= 250.0 &&
                       r.sim["serve.fail_frac"] == 0.0 &&
                       r.sim["serve.goodput_rps"] >= 0.95 * rate;
    if (meets) best = rate;
  }
  return best;
}

int bench(const Options& opt) {
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
  Runner runner{w->kind, kFull, opt.seed, nullptr};
  const std::size_t wide = wide_threads();
  std::vector<std::string> failures;

  Rep warm = runner.rep(1);
  const std::uint64_t reference = warm.fingerprint;
  audit(warm, reference, failures, "warm-up");
  // Peak memory of one whole 1-thread rep. Later wide reps would add the
  // allocator's per-thread arenas, whose size varies from run to run.
  const double rss = peak_rss_mb();

  // Interleave 1-thread and wide reps 5:3 until both minimums are met,
  // then give the two sides equal host time until --seconds have passed.
  constexpr std::size_t kMin1 = 5, kMin4 = 3;
  std::vector<Rep> reps;
  std::size_t n1 = 0, n4 = 0;
  double t1 = 0.0, t4 = 0.0;
  // Set-up is short next to a run, so it is sampled more often: after each
  // timed rep, reps that stop after set-up add samples spread over the
  // whole run. Only 1-thread set-ups count; a wide engine's set-up costs
  // differently, and a median over two kinds jumps between them.
  constexpr std::size_t kSetupOnlyPerRep = 5;
  std::vector<double> setup, run1, run4;
  const double start = host_now();
  while (n1 < kMin1 || n4 < kMin4 || host_now() - start < opt.seconds) {
    const bool go_wide = n1 < kMin1 || n4 < kMin4 ? n4 * kMin1 < n1 * kMin4
                                                  : t4 < t1;
    reps.push_back(runner.rep(go_wide ? wide : 1));
    audit(reps.back(), reference, failures, "timed");
    (go_wide ? n4 : n1) += 1;
    (go_wide ? t4 : t1) += reps.back().run_s;
    for (std::size_t i = 0; i < kSetupOnlyPerRep; ++i) {
      setup.push_back(runner.rep(1, true).setup_s);
    }
  }
  std::uint64_t attempted = 0, failed = 0;
  const Rep* fast1 = nullptr;  // the reps whose run times are reported
  const Rep* fast4 = nullptr;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    const bool is_wide = r.threads != 1;
    if (!is_wide) setup.push_back(r.setup_s);
    (is_wide ? run4 : run1).push_back(r.run_s);
    const Rep*& fast = is_wide ? fast4 : fast1;
    if (fast == nullptr || r.run_s < fast->run_s) fast = &r;
  }
  const Stat run1_s = fastest(run1);
  // The engine's share of a reported run time: CPU time retiring events,
  // and the rest of the run phase per engine thread (sync, merge, waits).
  auto event_cpu_s = [](const Rep* r) {
    return r->threads_used > 0 ? r->event_cpu_s : 0.0;
  };
  auto sync_s = [](const Rep* r) {
    if (r->threads_used == 0) return 0.0;
    return r->run_s - r->event_cpu_s / static_cast<double>(r->threads_used);
  };
  const Rep& first = reps.front();
  auto sim = [&first](const std::string& name) {
    const auto it = first.sim.find(name);
    return it == first.sim.end() ? 0.0 : it->second;
  };

  MetricSet ms;
  // End to end.
  ms.host("setup_s", "s", summarize(setup));
  ms.host("run_s_1t", "s", run1_s);
  ms.host("run_s_4t", "s", fastest(run4));
  ms.host("peak_rss_mb", "MB", rss);
  ms.sim("sim_makespan_us", "us", sim("sim_makespan_us"));

  // Per layer: deterministic counters from the first timed rep.
  const double events = sim("sim.events");
  const double rounds = sim("sim.rounds");
  const double windows = sim("sim.shard_windows");
  const double stalled = sim("sim.stalled_shard_windows");
  ms.sim("sim.events", "count", events);
  ms.sim("sim.rounds", "count", rounds);
  ms.sim("sim.events_per_round", "ratio", ratio(events, rounds), "sim.rounds");
  ms.sim("sim.stalled_frac", "ratio", ratio(stalled, windows + stalled),
         "sim.shard_windows+stalled");
  ms.sim("sim.cross_msgs", "count", sim("sim.cross_msgs"));
  ms.sim("sim.mailbox_spills", "count", sim("sim.mailbox_spills"));
  ms.host("sim.steals_4t", "count", static_cast<double>(fast4->steals));
  ms.host("sim.events_per_host_s_1t", "1/s", ratio(events, run1_s.value),
          "run_s_1t");
  ms.host("sim.event_cpu_s_1t", "s", event_cpu_s(fast1));
  ms.host("sim.event_cpu_s_4t", "s", event_cpu_s(fast4));
  ms.host("sim.sync_s_1t", "s", sync_s(fast1));
  ms.host("sim.sync_s_4t", "s", sync_s(fast4));
  for (const char* name :
       {"runtime.tasks", "runtime.shed_tasks", "runtime.forwarded_tasks",
        "serve.requests", "serve.completed", "serve.shed",
        "serve.latency_samples", "serve.remote_issues", "serve.forwards",
        "serve.byte_hops", "serve.graph_edge_reads", "repart.epochs",
        "repart.moves", "repart.moved_bytes", "repart.move_byte_hops",
        "unimem.local_accesses", "unimem.remote_accesses",
        "unimem.remote_retries", "interconnect.packets",
        "interconnect.byte_hops"}) {
    ms.sim(name, "count", sim(name));
  }
  for (const char* name :
       {"runtime.queue_wait_p50_us", "runtime.queue_wait_p99_us",
        "runtime.turnaround_p99_us", "serve.p50_us", "serve.p99_us",
        "serve.p999_us"}) {
    ms.sim(name, "us", sim(name));
  }
  ms.sim("serve.goodput_rps", "1/s", sim("serve.goodput_rps"));
  ms.sim("serve.fail_frac", "ratio", sim("serve.fail_frac"), "serve.requests");
  ms.sim("serve.graph_remote_frac", "ratio", sim("serve.graph_remote_frac"),
         "serve.graph_edge_reads");
  ms.sim("repart.remote_frac", "ratio", sim("repart.remote_frac"),
         "serve.requests");
  ms.sim("repart.last_imbalance", "ratio", sim("repart.last_imbalance"));
  const double local = sim("unimem.local_accesses");
  const double remote = sim("unimem.remote_accesses");
  ms.sim("unimem.remote_frac", "ratio", ratio(remote, local + remote),
         "unimem.local_accesses+remote_accesses");

  if (!opt.trace.empty()) {
    if (w->kind == Kind::kKvOpen) {
      ms.sim("serve.slo_max_rps", "1/s", slo_max_rps(runner, failures));
    } else {
      ms.sim("serve.slo_max_rps", "1/s", 0.0);
    }
    // The traced rep: program trace on, host spans exported beside it.
    obs::TraceOptions to;
    to.ring_capacity = std::size_t{1} << 16;
    obs::TraceSession::instance().start(to);
    Rep traced = runner.rep(1);
    obs::TraceSession::instance().stop();
    audit(traced, reference, failures, "traced");
    if (!write_trace(opt.trace, traced.spans)) {
      failures.push_back("cannot write trace " + opt.trace);
    }
    const Spans& sp = traced.spans;
    ms.host("runtime.setup_s", "s",
            sp.total("runtime.setup") + sp.total("runtime.machine_setup"));
    ms.host("serve.setup_s", "s",
            sp.total("serve.store_setup") + sp.total("serve.loadgen_setup") +
                sp.total("serve.graph_generate") +
                sp.total("serve.graph_layout"));
    ms.host("repart.setup_s", "s", sp.total("repart.setup"));
    ms.host("serve.graph_build_s", "s", sp.total("serve.graph_generate"));
    const double bfs = sp.total("serve.graph_bfs");
    const double pagerank = sp.total("serve.graph_pagerank");
    const double cc = sp.total("serve.graph_cc");
    ms.host("serve.graph_bfs_s", "s", bfs);
    ms.host("serve.graph_pagerank_s", "s", pagerank);
    ms.host("serve.graph_cc_s", "s", cc);
    ms.host("serve.graph_host_us_per_edge_read", "us",
            ratio((bfs + pagerank + cc) * 1e6, sim("serve.graph_edge_reads")),
            "serve.graph_edge_reads");
    ms.host("obs.traced_run_s_1t", "s", traced.run_s);
    ms.host("obs.trace_overhead_frac", "ratio",
            ratio(traced.run_s, run1_s.value) - 1.0, "run_s_1t");
    const obs::TraceSession& session = obs::TraceSession::instance();
    ms.host("obs.trace_events", "count",
            static_cast<double>(session.events_recorded()));
    ms.host("obs.trace_dropped", "count",
            static_cast<double>(session.events_dropped()));
  }

  std::string fingerprint;
  {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << reference;
    fingerprint = os.str();
  }
  std::string fails = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    fails += (i ? ", " : "") + json_str(failures[i]);
  }
  fails += "]";
  std::cout << "ECOBENCH_JSON {\"workload\": " << json_str(w->name)
            << ", \"seed\": " << opt.seed << ", \"correct\": "
            << (failures.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"failures\": " << fails << ", \"fingerprint\": "
            << json_str(fingerprint) << ", \"reps_1t\": " << n1
            << ", \"reps_4t\": " << n4 << ", \"threads_4t\": " << wide
            << ", \"metrics\": " << ms.json() << "}" << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ecobench

int main(int argc, char** argv) {
  const ecobench::Options opt = ecobench::parse(argc, argv);
  if (opt.smoke) return ecobench::smoke();
  if (opt.workload.empty()) ecobench::usage("--workload or --smoke required");
  return ecobench::bench(opt);
}
