// End-to-end fault injection & recovery: the live FaultInjector path
// (worker crashes, node loss, UNIMEM page failover, UNILOGIC dead-fabric
// fallback) plus the legacy failures_per_second path (wasted-energy
// accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "hls/dse.h"
#include "obs/trace.h"
#include "runtime/scheduler.h"

namespace ecoscale {
namespace {

// --- live runtime rig -------------------------------------------------------

struct LiveRig {
  explicit LiveRig(const FaultConfig& faults,
                   double legacy_failures_per_second = 0.0) {
    MachineConfig mc;
    mc.nodes = 2;
    mc.workers_per_node = 4;
    machine = std::make_unique<Machine>(mc);
    sim = std::make_unique<Simulator>();
    RuntimeConfig rc;
    rc.placement = PlacementPolicy::kModelBased;
    rc.distribution = DistributionPolicy::kLazyLocal;
    rc.faults = faults;
    rc.failures_per_second = legacy_failures_per_second;
    runtime = std::make_unique<RuntimeSystem>(*machine, *sim, rc);
    kernel = make_montecarlo_kernel();
    runtime->register_kernel(kernel, emit_variants(kernel, 2));
  }

  /// Submit `n` deterministic mixed tasks (released over 3 ms) and run to
  /// completion.
  void run(std::size_t n) {
    Rng rng(5);
    for (TaskId i = 0; i < n; ++i) {
      Task t;
      t.id = i;
      t.kernel = kernel.id;
      t.items = 50000 + rng.uniform_u64(100000);
      t.features.items = static_cast<double>(t.items);
      t.home = WorkerCoord{static_cast<NodeId>(rng.uniform_u64(2)),
                           static_cast<WorkerId>(rng.uniform_u64(4))};
      t.release = rng.uniform_u64(milliseconds(3));
      runtime->submit(t);
    }
    runtime->run();
  }

  std::unique_ptr<Machine> machine;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<RuntimeSystem> runtime;
  KernelIR kernel;
};

FaultConfig crash_faults(double rate) {
  FaultConfig fc;
  fc.enabled = true;
  fc.worker_crash_per_second = rate;
  return fc;
}

TEST(ResilienceLive, CrashRecoveryCompletesAllTasks) {
  LiveRig rig(crash_faults(2000.0));
  rig.run(64);
  const auto stats = rig.runtime->stats();
  EXPECT_EQ(rig.runtime->results().size(), 64u);
  EXPECT_GT(rig.runtime->faults()->crashes(), 0u);
  EXPECT_GT(stats.worker_failures, 0u);
  EXPECT_GT(stats.reexecutions, 0u);
  // Destroyed in-flight progress is priced, not silently dropped.
  EXPECT_GT(stats.wasted_energy, 0.0);
}

TEST(ResilienceLive, CleanRunNeedsNoRecovery) {
  LiveRig rig(crash_faults(0.0));
  rig.run(64);
  const auto stats = rig.runtime->stats();
  EXPECT_EQ(rig.runtime->results().size(), 64u);
  EXPECT_EQ(rig.runtime->faults()->crashes(), 0u);
  EXPECT_EQ(stats.worker_failures, 0u);
  EXPECT_EQ(stats.detections, 0u);
  EXPECT_EQ(stats.reexecutions, 0u);
  EXPECT_TRUE(rig.runtime->recovery_log().empty());
  EXPECT_EQ(stats.wasted_energy, 0.0);
}

TEST(ResilienceLive, CrashesLengthenTheMakespan) {
  // Recovery costs time: the same tasks finish sooner with no crashes.
  LiveRig clean(crash_faults(0.0));
  clean.run(64);
  LiveRig faulty(crash_faults(3000.0));
  faulty.run(64);
  EXPECT_EQ(clean.runtime->results().size(), 64u);
  EXPECT_EQ(faulty.runtime->results().size(), 64u);
  ASSERT_GT(faulty.runtime->faults()->crashes(), 0u);
  EXPECT_LT(clean.runtime->stats().makespan,
            faulty.runtime->stats().makespan);
}

TEST(ResilienceLive, ReexecutionStartsAfterItsDetection) {
  // A failed-over task must not restart on a survivor before the monitor
  // could have declared its worker dead, and it completes exactly once.
  LiveRig rig(crash_faults(2000.0));
  rig.run(64);
  const auto& log = rig.runtime->recovery_log();
  ASSERT_FALSE(log.empty());
  std::map<TaskId, const TaskResult*> by_id;
  for (const TaskResult& r : rig.runtime->results()) {
    EXPECT_TRUE(by_id.emplace(r.id, &r).second) << "task " << r.id;
  }
  EXPECT_EQ(by_id.size(), 64u);
  for (const auto& rec : log) {
    const auto it = by_id.find(rec.task);
    ASSERT_NE(it, by_id.end()) << "task " << rec.task;
    EXPECT_GE(it->second->started, rec.detected_at) << "task " << rec.task;
  }
}

TEST(ResilienceLive, CrashChainsKeepFiringUntilTheWorkloadDrains) {
  // Crashes are sampled lazily per worker for as long as tasks are
  // pending, not up to a precomputed horizon: under a brutal rate the run
  // stretches far past its clean makespan and crashes still land there.
  LiveRig clean(crash_faults(0.0));
  clean.run(64);
  LiveRig rig(crash_faults(10000.0));
  rig.run(64);
  EXPECT_EQ(rig.runtime->results().size(), 64u);
  const SimTime clean_makespan = clean.runtime->stats().makespan;
  SimTime last_crash = 0;
  for (const auto& rec : rig.runtime->recovery_log()) {
    last_crash = std::max(last_crash, rec.crash_at);
  }
  EXPECT_GT(rig.runtime->stats().makespan, clean_makespan);
  EXPECT_GT(last_crash, clean_makespan);
}

TEST(ResilienceLive, DetectionRespectsHeartbeatTimeout) {
  FaultConfig fc = crash_faults(2000.0);
  LiveRig rig(fc);
  rig.run(64);
  const auto& log = rig.runtime->recovery_log();
  ASSERT_FALSE(log.empty());
  for (const auto& r : log) {
    // The runtime must not know of a crash before the heartbeat monitor
    // could have: detection is at least detect_timeout after the fact.
    EXPECT_GE(r.detected_at, r.crash_at + fc.detect_timeout);
    EXPECT_NE(r.requeued_to, r.worker);
  }
  EXPECT_GE(rig.runtime->stats().detections, log.size());
}

TEST(ResilienceLive, DeterministicForFixedSeed) {
  LiveRig a(crash_faults(2000.0));
  a.run(64);
  LiveRig b(crash_faults(2000.0));
  b.run(64);
  const auto sa = a.runtime->stats();
  const auto sb = b.runtime->stats();
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.worker_failures, sb.worker_failures);
  EXPECT_EQ(sa.detections, sb.detections);
  EXPECT_DOUBLE_EQ(sa.wasted_energy, sb.wasted_energy);
  EXPECT_EQ(a.runtime->recovery_log().size(), b.runtime->recovery_log().size());
}

TEST(ResilienceLive, NodeLossFailsOverToSurvivors) {
  FaultConfig fc;
  fc.enabled = true;
  fc.node_losses.push_back({/*node=*/1, /*at=*/milliseconds(1)});
  LiveRig rig(fc);
  rig.run(64);
  const auto stats = rig.runtime->stats();
  // Every task completes even though half the machine is gone for the
  // last two-thirds of the release window.
  EXPECT_EQ(rig.runtime->results().size(), 64u);
  EXPECT_EQ(rig.runtime->faults()->node_losses(), 1u);
  EXPECT_FALSE(rig.machine->health().node_up(1));
  EXPECT_TRUE(rig.machine->health().node_up(0));
  // All four lost workers are eventually declared dead.
  EXPECT_EQ(stats.detections, 4u);
}

TEST(ResilienceLive, ScriptedCrashFiresAtExactTimeThenRepairs) {
  // A scripted CrashEvent is the deterministic counterpart of the Poisson
  // chains: it takes the worker down at precisely `at` and (non-permanent)
  // brings it back exactly `repair_after` later. The litmus harness relies
  // on this to place a crash between two memory operations.
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 2;
  Machine machine(mc);
  Simulator sim;
  FaultConfig fc;
  fc.enabled = true;
  fc.scripted_crashes.push_back(
      {/*worker=*/1, /*at=*/microseconds(7), /*permanent=*/false,
       /*repair_after=*/microseconds(3)});
  std::vector<std::pair<std::size_t, SimTime>> downs;
  std::vector<std::pair<std::size_t, SimTime>> ups;
  FaultInjector::Callbacks cb;
  cb.on_worker_down = [&](std::size_t w, SimTime at) {
    downs.emplace_back(w, at);
  };
  cb.on_worker_up = [&](std::size_t w, SimTime at) { ups.emplace_back(w, at); };
  cb.active = [] { return true; };
  FaultInjector inj(sim, machine, fc, cb);
  inj.arm();
  sim.run();
  ASSERT_EQ(downs.size(), 1u);
  EXPECT_EQ(downs[0].first, 1u);
  EXPECT_EQ(downs[0].second, microseconds(7));
  ASSERT_EQ(ups.size(), 1u);
  EXPECT_EQ(ups[0].first, 1u);
  EXPECT_EQ(ups[0].second, microseconds(10));  // exactly repair_after later
  EXPECT_TRUE(machine.health().up(1));
  EXPECT_EQ(inj.crashes(), 1u);
}

TEST(ResilienceLive, ScriptedPermanentCrashNeverRepairs) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 2;
  Machine machine(mc);
  Simulator sim;
  FaultConfig fc;
  fc.enabled = true;
  fc.scripted_crashes.push_back(
      {/*worker=*/0, /*at=*/microseconds(5), /*permanent=*/true,
       /*repair_after=*/0});
  std::vector<std::pair<std::size_t, SimTime>> downs;
  bool repaired = false;
  FaultInjector::Callbacks cb;
  cb.on_worker_down = [&](std::size_t w, SimTime at) {
    downs.emplace_back(w, at);
  };
  cb.on_worker_up = [&](std::size_t, SimTime) { repaired = true; };
  cb.active = [] { return true; };
  FaultInjector inj(sim, machine, fc, cb);
  inj.arm();
  sim.run();  // drains: a permanent crash schedules no repair event
  ASSERT_EQ(downs.size(), 1u);
  EXPECT_EQ(downs[0].first, 0u);
  EXPECT_EQ(downs[0].second, microseconds(5));
  EXPECT_FALSE(repaired);
  EXPECT_FALSE(machine.health().up(0));
  EXPECT_TRUE(machine.health().up(1));  // the node itself stays reachable
  EXPECT_TRUE(machine.health().node_up(0));
}

#if !defined(ECO_TRACE_DISABLED)

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ResilienceLive, TraceFaultLifecycleIsBalanced) {
  auto& session = obs::TraceSession::instance();
  obs::TraceOptions opts;
  opts.categories = obs::cat_bit(obs::Cat::kFault) |
                    obs::cat_bit(obs::Cat::kDetect) |
                    obs::cat_bit(obs::Cat::kRetry) |
                    obs::cat_bit(obs::Cat::kFailover);
  opts.ring_capacity = std::size_t{1} << 14;
  opts.counter_sample_every = 1;
  session.start(opts);
  LiveRig rig(crash_faults(2000.0));
  rig.run(64);
  session.stop();
  std::ostringstream os;
  session.export_json(os);
  const std::string json = os.str();
  const auto stats = rig.runtime->stats();
  const std::uint64_t crashes = rig.runtime->faults()->crashes();
  ASSERT_GT(crashes, 0u);
  // Every injected crash leaves a crash marker and (non-permanent faults
  // only run here) a matching repair; every detection leaves a marker.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"fault.crash\""), crashes);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"fault.repair\""), crashes);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"fault.detect\""),
            stats.detections);
}

#endif  // !ECO_TRACE_DISABLED

// --- UNIMEM dead-owner failover ---------------------------------------------

TEST(PgasFault, DeadOwnerRetriesThenRehomesPage) {
  MachineConfig mc;
  mc.nodes = 2;
  mc.workers_per_node = 4;
  Machine machine(mc);
  auto& pgas = machine.pgas();
  const GlobalAddress addr = pgas.alloc(/*node=*/1, /*worker=*/0, 4096);
  for (std::size_t w = 4; w < 8; ++w) machine.health().mark_down(w);

  const WorkerCoord reader{0, 0};
  const auto first = pgas.load(reader, addr, 64, 0);
  const auto& cfg = machine.config().pgas;
  // Bounded retries with linear backoff, then ownership failover.
  EXPECT_EQ(pgas.remote_retries(), cfg.fault_max_retries);
  EXPECT_EQ(pgas.page_failovers(), 1u);
  SimDuration retry_floor = 0;
  for (std::size_t a = 0; a < cfg.fault_max_retries; ++a) {
    retry_floor += cfg.fault_retry_timeout + a * cfg.fault_retry_backoff;
  }
  EXPECT_GE(first.finish, retry_floor);
  // The page now lives on the survivor: later accesses are plain local
  // loads, no further retries.
  const auto second = pgas.load(reader, addr, 64, first.finish);
  EXPECT_FALSE(second.remote);
  EXPECT_EQ(pgas.remote_retries(), cfg.fault_max_retries);
  EXPECT_EQ(pgas.page_failovers(), 1u);
}

// --- UNILOGIC dead-fabric fallback ------------------------------------------

TEST(PoolFault, DeadFabricTimesOutBlacklistsAndFallsBackLocal) {
  MachineConfig mc;
  mc.nodes = 1;
  mc.workers_per_node = 4;
  Machine machine(mc);
  auto& pool = machine.pool(0);
  const auto module = emit_variants(make_montecarlo_kernel(), 1).front();
  // Saturate the caller's own fabric so remote candidates win placement.
  ASSERT_TRUE(pool.invoke(0, module, 5'000'000, 0,
                          DispatchPolicy::kLocalOnly));
  for (std::size_t w = 1; w < 4; ++w) machine.health().mark_down(w);

  const auto r =
      pool.invoke(0, module, 100'000, 0, DispatchPolicy::kLeastLoaded);
  // The doorbells go unanswered: bounded remote attempts, blacklist, then
  // degrade to the caller's own (busy but alive) fabric. The call still
  // succeeds — a dead neighbour never loses the invocation.
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->executed_on, 0u);
  EXPECT_FALSE(r->remote);
  EXPECT_EQ(pool.failed_remote_attempts(), 2u);  // max attempts per call
  EXPECT_EQ(pool.local_fallbacks(), 1u);
  EXPECT_EQ(machine.health().blacklists(), 2u);
}

// --- legacy failures_per_second path ----------------------------------------

TEST(LegacyFailures, CrashedAttemptsChargeWastedEnergy) {
  FaultConfig off;
  LiveRig rig(off, /*legacy_failures_per_second=*/3000.0);
  rig.run(48);
  const auto stats = rig.runtime->stats();
  EXPECT_EQ(rig.runtime->results().size(), 48u);
  ASSERT_GT(stats.worker_failures, 0u);
  EXPECT_GT(stats.wasted_energy, 0.0);
}

TEST(LegacyFailures, CleanRunWastesNothing) {
  FaultConfig off;
  LiveRig rig(off, /*legacy_failures_per_second=*/0.0);
  rig.run(16);
  EXPECT_EQ(rig.runtime->results().size(), 16u);
  EXPECT_EQ(rig.runtime->stats().worker_failures, 0u);
  EXPECT_EQ(rig.runtime->stats().wasted_energy, 0.0);
}

}  // namespace
}  // namespace ecoscale
