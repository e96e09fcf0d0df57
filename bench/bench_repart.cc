// bench_repart — online locality-aware repartitioning driven by live
// traffic (DESIGN.md §7.11, ROADMAP item 3): the CI gate that proves the
// repartitioner pays off. Three scenarios, each static-vs-reactive on
// identical workloads over an 8-node {4,2} tree (two chassis of four):
//
//  * phase rotation: closed-loop Zipfian KV traffic whose per-origin
//    affine key window rotates one node every phase period — a static
//    contiguous partition decays to mostly-remote service while the
//    reactive store follows the traffic. Reactive must cut the
//    remote-issue rate and total byte-hops (requests + migration DMAs)
//    and raise goodput.
//  * node outage: open-loop traffic with a scripted whole-node crash
//    mid-run. Static strands every request aimed at the dead node until
//    repair; the reactive plan sees the node's believed-alive capacity
//    collapse and diffusion drains its blocks after detection, so only
//    the detection window's requests stall. Reactive must cut p99 and
//    produce stale-owner forwards (the re-homing path under live load).
//  * mesh front: the unstructured-mesh workload with an activity front
//    sweeping the ring. Static serializes the front on whichever node
//    owns it; reactive spreads it and must win total cell updates.
//
// Every reactive scenario re-runs at --sim-threads 1 and the fingerprint
// (workload fold + plan fingerprint) must be byte-identical to the
// parallel run — decisions happen at engine pause epochs, so thread
// count can never change a plan. All margins are enforced in-binary
// (FATAL + exit 1) and the deterministic columns are CI-gated against
// bench/baselines/bench_repart.json.
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/table.h"
#include "repart/mesh.h"
#include "repart/repart.h"
#include "serve/kvstore.h"
#include "serve/latency.h"
#include "serve/loadgen.h"

namespace ecoscale {
namespace {

using serve::LoadGen;
using serve::LoadGenConfig;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kWorkersPerNode = 4;
constexpr std::size_t kBlocks = 64;
constexpr std::uint64_t kKeySpace = 1ull << 13;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

struct KvScenario {
  bool reactive = false;
  bool outage = false;
  std::size_t sim_threads = 1;
};

struct KvResult {
  LoadGen::Report report;
  serve::TailSummary tail;
  serve::KvStore::CrossStats cross;
  repart::Repartitioner::Stats plan;  // zeros when static
  double goodput = 0.0;
  double remote_rate = 0.0;        // remote issues / issued
  std::uint64_t total_byte_hops = 0;  // request traffic + migration DMAs
  std::uint64_t fingerprint = 0;   // workload fold + plan fingerprint
};

KvResult run_kv(const KvScenario& s) {
  ShardedRuntimeConfig rc;
  rc.nodes = kNodes;
  rc.workers_per_node = kWorkersPerNode;
  rc.threads = s.sim_threads;
  rc.internode_radices = {4, 2};
  rc.runtime.placement = PlacementPolicy::kAlwaysSoftware;
  rc.runtime.distribution = DistributionPolicy::kHomeOnly;
  if (s.reactive) {
    // A 30 us epoch gives each block a few requests per window — enough
    // signal for the two-epoch confirmation without reacting to noise —
    // and the 0.5 imbalance floor keeps the balance pass out of the
    // locality story entirely: it only fires when capacity actually
    // collapses (the outage drives believed-alive imbalance to 1e6).
    rc.runtime.repartition_epoch = microseconds(30);
    rc.runtime.repartition_max_moves = 64;
    rc.runtime.repartition_imbalance = 0.5;
    rc.runtime.repartition_alpha = 0.7;
    rc.runtime.repartition_cooldown = 2;
    rc.runtime.repartition_min_gain = 128;
  }
  if (s.outage) {
    // Whole-node crash at 300 µs, repaired 150 µs later; fast heartbeats
    // so detection (and the reactive drain) lands ~15 µs in.
    rc.node_outages.push_back(ShardedRuntimeConfig::NodeOutage{
        2, microseconds(300), microseconds(150)});
    rc.runtime.faults.heartbeat_period = microseconds(5);
    rc.runtime.faults.detect_timeout = microseconds(15);
  }
  ShardedRuntime rt(rc);

  serve::KvConfig kc;
  kc.key_space = kKeySpace;
  kc.value_bytes = 256;
  kc.service_items = 600;
  kc.repart_blocks = kBlocks;
  serve::KvStore kv(rt, kc);

  std::unique_ptr<repart::Repartitioner> rp;
  if (s.reactive) {
    rp = std::make_unique<repart::Repartitioner>(rt, kBlocks,
                                                 kv.initial_block_owners());
    kv.attach_repartitioner(rp.get());
    rp->install();
  }

  LoadGenConfig lg;
  lg.zipf_skew = 0.9;
  lg.origin_affinity = 0.9;
  if (s.outage) {
    // Open loop: the generator keeps offering load while the dead node's
    // queue strands, which is what makes the stall visible in the tail.
    // ~60% utilization: the tail below is the outage stall, not baseline
    // queueing (near saturation the detour/forward capacity cost would
    // mix into the comparison).
    lg.mode = LoadGenConfig::Mode::kOpenLoop;
    lg.offered_load = 4e6;
    lg.requests_per_node = 600;
    lg.phase_period = 0;  // stationary affinity: the fault is the story
  } else {
    // Latency-bound closed loop (fewer clients than workers): remote
    // detours lengthen the client round trip directly, so locality is
    // goodput, not just byte counts.
    lg.mode = LoadGenConfig::Mode::kClosedLoop;
    lg.clients_per_node = 3;
    lg.requests_per_client = 400;
    lg.phase_period = microseconds(400);
  }
  LoadGen gen(rt, kv, lg);
  gen.start();
  rt.run();

  KvResult out;
  out.report = gen.report();
  out.tail = serve::summarize(out.report.latency);
  out.cross = kv.cross_stats();
  if (rp != nullptr) out.plan = rp->stats();
  out.goodput =
      serve::goodput_per_sec(out.report.completed, out.report.last_completion);
  out.remote_rate = out.report.issued > 0
                        ? static_cast<double>(out.cross.remote_issues) /
                              static_cast<double>(out.report.issued)
                        : 0.0;
  out.total_byte_hops = out.cross.byte_hops + out.plan.move_byte_hops;
  out.fingerprint =
      fnv_word(out.report.fingerprint, out.plan.plan_fingerprint);
  ECO_CHECK_MSG(out.report.issued == out.report.completed + out.report.shed,
                "every issued request must complete or shed");
  return out;
}

struct MeshResult {
  repart::MeshWorkload::Report report;
  repart::Repartitioner::Stats plan;  // zeros when static
};

MeshResult run_mesh(bool reactive, std::size_t sim_threads) {
  ShardedRuntimeConfig rc;
  rc.nodes = kNodes;
  rc.workers_per_node = 2;
  rc.threads = sim_threads;
  rc.internode_radices = {4, 2};
  ShardedRuntime rt(rc);

  repart::MeshConfig mc;
  mc.cells = 2048;
  mc.front_width = 0.10;
  mc.front_period = milliseconds(1);
  mc.duration = microseconds(500);

  // The RepartConfig constructor (rather than the RuntimeConfig knobs):
  // the mesh wants a slower cadence than the KV scenarios.
  std::unique_ptr<repart::Repartitioner> rp;
  if (reactive) {
    repart::RepartConfig cfg;
    cfg.epoch = microseconds(20);
    cfg.max_moves = 64;
    cfg.alpha = 0.7;
    cfg.cooldown = 2;
    cfg.min_gain = 32;
    rp = std::make_unique<repart::Repartitioner>(
        rt, cfg, mc.cells, contiguous_owners(mc.cells, kNodes));
  }
  repart::MeshWorkload mesh(rt, rp.get(), mc);
  if (rp != nullptr) rp->install();
  mesh.start();
  rt.run();

  MeshResult out;
  out.report = mesh.report();
  if (rp != nullptr) out.plan = rp->stats();
  return out;
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  bench::init(argc, argv);
  bench::print_header(
      "bench_repart",
      "online repartitioning driven by live traffic: phase-rotating KV "
      "serving, a node outage, and a sweeping mesh front — static vs "
      "reactive, deterministic at any --sim-threads");

  const std::size_t sim_threads = bench::sim_threads();

  // --- phase rotation ------------------------------------------------------
  KvScenario phase_static;
  phase_static.sim_threads = sim_threads;
  KvScenario phase_reactive = phase_static;
  phase_reactive.reactive = true;
  const KvResult ps = run_kv(phase_static);
  const KvResult pr = run_kv(phase_reactive);

  Table phase_table({"placement", "issued", "completed", "remote %",
                     "byte hops", "goodput/sec", "p99 ns", "moves", "hash"});
  for (const auto* r : {&ps, &pr}) {
    phase_table.add_row(
        {r == &ps ? "static" : "reactive", fmt_u64(r->report.issued),
         fmt_u64(r->report.completed), fmt_fixed(100.0 * r->remote_rate, 1),
         fmt_u64(r->total_byte_hops), fmt_sci(r->goodput, 3),
         fmt_fixed(r->tail.p99_ns, 1), fmt_u64(r->plan.moves),
         fmt_u64(r->fingerprint)});
  }
  bench::print_table(
      phase_table,
      "phase-rotating affine KV traffic (90% of each origin's requests\n"
      "target a key window that shifts one node every 400 us): the static\n"
      "contiguous partition goes remote after the first rotation, the\n"
      "reactive store migrates blocks behind the traffic:");

  // --- node outage ---------------------------------------------------------
  KvScenario fault_static;
  fault_static.outage = true;
  fault_static.sim_threads = sim_threads;
  KvScenario fault_reactive = fault_static;
  fault_reactive.reactive = true;
  const KvResult fs = run_kv(fault_static);
  const KvResult fr = run_kv(fault_reactive);

  Table fault_table({"placement", "completed", "goodput/sec", "p99 ns",
                     "p999 ns", "forwards", "moves", "hash"});
  for (const auto* r : {&fs, &fr}) {
    fault_table.add_row(
        {r == &fs ? "static" : "reactive", fmt_u64(r->report.completed),
         fmt_sci(r->goodput, 3), fmt_fixed(r->tail.p99_ns, 1),
         fmt_fixed(r->tail.p999_ns, 1), fmt_u64(r->cross.forwards),
         fmt_u64(r->plan.moves), fmt_u64(r->fingerprint)});
  }
  bench::print_table(
      fault_table,
      "whole-node outage at 300 us (repaired 150 us later) under open-loop\n"
      "load: static strands every request aimed at the dead node until\n"
      "repair; reactive drains its blocks ~15 us after the crash, and the\n"
      "stranded stragglers re-home through stale-owner forwards:");

  // --- mesh front ----------------------------------------------------------
  const MeshResult ms = run_mesh(false, sim_threads);
  const MeshResult mr = run_mesh(true, sim_threads);

  Table mesh_table({"placement", "updates", "steps", "remote %",
                    "updates/sec", "byte hops", "moves", "hash"});
  for (const auto* r : {&ms, &mr}) {
    mesh_table.add_row(
        {r == &ms ? "static" : "reactive", fmt_u64(r->report.updates),
         fmt_u64(r->report.steps),
         fmt_fixed(100.0 * r->report.remote_read_rate, 1),
         fmt_sci(r->report.updates_per_sec, 3),
         fmt_u64(r->report.halo_byte_hops + r->plan.move_byte_hops),
         fmt_u64(r->plan.moves), fmt_u64(r->report.fingerprint)});
  }
  bench::print_table(
      mesh_table,
      "unstructured-mesh front sweeping the ring (10% of 2048 cells active\n"
      "at a time): the static contiguous partition serializes the front on\n"
      "one or two nodes while everyone else spins; the reactive plan\n"
      "spreads the active cells and multiplies the update rate:");

  // --- determinism: --sim-threads 1 vs N for every reactive scenario -------
  KvScenario phase_seq = phase_reactive;
  phase_seq.sim_threads = 1;
  KvScenario fault_seq = fault_reactive;
  fault_seq.sim_threads = 1;
  const KvResult pr1 = run_kv(phase_seq);
  const KvResult fr1 = run_kv(fault_seq);
  const MeshResult mr1 = run_mesh(true, 1);

  Table det_table({"run", "moves", "hash"});
  det_table.add_row({"phase/1", fmt_u64(pr1.plan.moves),
                     fmt_u64(pr1.fingerprint)});
  det_table.add_row({"phase/" + std::to_string(sim_threads),
                     fmt_u64(pr.plan.moves), fmt_u64(pr.fingerprint)});
  det_table.add_row({"fault/1", fmt_u64(fr1.plan.moves),
                     fmt_u64(fr1.fingerprint)});
  det_table.add_row({"fault/" + std::to_string(sim_threads),
                     fmt_u64(fr.plan.moves), fmt_u64(fr.fingerprint)});
  det_table.add_row({"mesh/1", fmt_u64(mr1.plan.moves),
                     fmt_u64(mr1.report.fingerprint)});
  det_table.add_row({"mesh/" + std::to_string(sim_threads),
                     fmt_u64(mr.plan.moves), fmt_u64(mr.report.fingerprint)});
  bench::print_table(
      det_table,
      "every reactive scenario at 1 vs N simulation threads: plans are\n"
      "decided at engine pause epochs from folded windows, so the\n"
      "workload + plan fingerprints must be byte-identical:");

  // --- gates ---------------------------------------------------------------
  if (pr1.fingerprint != pr.fingerprint ||
      fr1.fingerprint != fr.fingerprint ||
      mr1.report.fingerprint != mr.report.fingerprint) {
    std::cerr << "FATAL: repartitioning fingerprint differs across sim "
                 "threads\n";
    return 1;
  }
  if (pr.plan.moves == 0) {
    std::cerr << "FATAL: reactive phase run executed no migrations\n";
    return 1;
  }
  if (pr.remote_rate > 0.7 * ps.remote_rate) {
    std::cerr << "FATAL: reactive remote-issue rate " << pr.remote_rate
              << " not under 0.7x static " << ps.remote_rate << "\n";
    return 1;
  }
  if (pr.total_byte_hops >= ps.total_byte_hops) {
    std::cerr << "FATAL: reactive byte-hops (incl. migration DMAs) "
              << pr.total_byte_hops << " not below static "
              << ps.total_byte_hops << "\n";
    return 1;
  }
  if (pr.goodput <= 1.02 * ps.goodput) {
    std::cerr << "FATAL: reactive goodput " << pr.goodput
              << " not above 1.02x static " << ps.goodput << "\n";
    return 1;
  }
  if (fr.plan.moves == 0 || fr.cross.forwards == 0) {
    std::cerr << "FATAL: outage run must migrate blocks off the dead node "
                 "and re-home stranded requests (moves "
              << fr.plan.moves << ", forwards " << fr.cross.forwards << ")\n";
    return 1;
  }
  if (fr.tail.p99_ns > 0.5 * fs.tail.p99_ns) {
    std::cerr << "FATAL: reactive p99 under outage " << fr.tail.p99_ns
              << " ns not under 0.5x static " << fs.tail.p99_ns << " ns\n";
    return 1;
  }
  if (mr.plan.moves == 0 ||
      mr.report.updates < (12 * ms.report.updates) / 10) {
    std::cerr << "FATAL: reactive mesh updates " << mr.report.updates
              << " not 1.2x static " << ms.report.updates << " (moves "
              << mr.plan.moves << ")\n";
    return 1;
  }

  std::cout << "REPART_JSON {"
            << "\"phase_static_remote_rate\": " << ps.remote_rate
            << ", \"phase_reactive_remote_rate\": " << pr.remote_rate
            << ", \"phase_static_byte_hops\": " << ps.total_byte_hops
            << ", \"phase_reactive_byte_hops\": " << pr.total_byte_hops
            << ", \"phase_static_goodput\": " << ps.goodput
            << ", \"phase_reactive_goodput\": " << pr.goodput
            << ", \"phase_moves\": " << pr.plan.moves
            << ", \"fault_static_p99_ns\": " << fs.tail.p99_ns
            << ", \"fault_reactive_p99_ns\": " << fr.tail.p99_ns
            << ", \"fault_forwards\": " << fr.cross.forwards
            << ", \"fault_moves\": " << fr.plan.moves
            << ", \"mesh_static_updates\": " << ms.report.updates
            << ", \"mesh_reactive_updates\": " << mr.report.updates
            << ", \"mesh_moves\": " << mr.plan.moves
            << ", \"det_match\": 1}\n";
  return 0;
}
