// Unified fault injection for the live simulation (robustness pillar).
//
// The FaultInjector drives four fault domains through the discrete-event
// simulator against a running Machine:
//
//  * worker crashes  — per-worker Poisson process; the worker goes down,
//    loses any in-flight task, and comes back after repair_time;
//  * node loss       — scripted, permanent: every worker of the node goes
//    down at once and never repairs (its memory fails over lazily via
//    PgasSystem's dead-owner path);
//  * link degradation— scripted window during which one tree level's
//    serialization bandwidth is scaled down (Network::set_level_degradation);
//  * fabric SEUs     — Poisson upsets that corrupt (unload) an idle loaded
//    bitstream on a random worker's fabric; the next call pays a full
//    reconfiguration, as a bitstream reload after a scrub would.
//
// Liveness flows through the Machine's HealthRegistry; the runtime layer
// learns of it only through its heartbeat monitor (detect_timeout later),
// which is the causality the recovery tests pin down. The injector is
// deliberately decoupled from the scheduler: consequences are delivered
// via callbacks, so this header never depends on scheduler.h.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "runtime/machine.h"
#include "sim/simulator.h"

namespace ecoscale {

/// Permanent loss of a whole Compute Node at `at`.
struct NodeLossEvent {
  std::size_t node = 0;
  SimTime at = 0;
};

/// Scripted single-worker crash at an exact sim time — the deterministic
/// counterpart of the Poisson chains, used by litmus-style runs that need
/// a crash (or a crash/repair race) at a precise point between two memory
/// operations. Unless `permanent`, the worker repairs `repair_after`
/// later (0 falls back to FaultConfig::repair_time).
struct CrashEvent {
  std::size_t worker = 0;
  SimTime at = 0;
  bool permanent = false;
  SimDuration repair_after = 0;
};

/// Serialization slowdown of every link on tree level `level` during
/// [at, at + duration): factor 4 means a quarter of the bandwidth.
struct LinkDegradeEvent {
  int level = 0;
  SimTime at = 0;
  SimDuration duration = milliseconds(1);
  double factor = 4.0;
};

struct FaultConfig {
  bool enabled = false;
  /// Poisson crash rate per worker; 0 disables the crash chains.
  double worker_crash_per_second = 0.0;
  SimDuration repair_time = milliseconds(2);
  /// Poisson rate of single-event upsets across the whole machine.
  double seu_per_second = 0.0;
  std::vector<NodeLossEvent> node_losses;
  std::vector<LinkDegradeEvent> link_degrades;
  /// Scripted crash points (see CrashEvent); independent of the Poisson
  /// chains and active whenever `enabled` is set.
  std::vector<CrashEvent> scripted_crashes;
  /// Heartbeat monitor cadence and the silence window after which the
  /// runtime declares a worker dead (consumed by RuntimeSystem).
  SimDuration heartbeat_period = microseconds(50);
  SimDuration detect_timeout = microseconds(200);
  std::uint64_t seed = 1234;
};

class FaultInjector {
 public:
  struct Callbacks {
    /// A worker just went down (crash or node loss), at sim time `at`.
    std::function<void(std::size_t worker, SimTime at)> on_worker_down;
    /// A crashed worker finished repair and is up again.
    std::function<void(std::size_t worker, SimTime at)> on_worker_up;
    /// Gate for the self-rescheduling Poisson chains: once this returns
    /// false the chains stop re-arming, so sim.run() can terminate.
    std::function<bool()> active;
  };

  FaultInjector(Simulator& sim, Machine& machine, FaultConfig config,
                Callbacks callbacks);

  /// Schedule the scripted events and start the Poisson chains. Call once,
  /// before sim.run().
  void arm();

  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t node_losses() const { return node_losses_; }
  std::uint64_t seu_hits() const { return seu_hits_; }
  std::uint64_t link_faults() const { return link_faults_; }
  const FaultConfig& config() const { return config_; }

 private:
  void schedule_next_crash(std::size_t worker);
  void schedule_next_seu();
  /// Take `worker` down; permanent means no repair is ever scheduled.
  /// `repair_after` overrides config repair_time when non-zero.
  void take_down(std::size_t worker, bool permanent,
                 SimDuration repair_after = 0);

  Simulator& sim_;
  Machine& machine_;
  FaultConfig config_;
  Callbacks cb_;
  std::vector<Rng> crash_rng_;  // one stream per worker: order-independent
  Rng seu_rng_;
  /// Bumped every time a worker goes down; a pending repair only
  /// resurrects the epoch it was scheduled for (a node loss that lands
  /// during a crash's repair window must not be undone by that repair).
  std::vector<std::uint64_t> down_epoch_;
  std::vector<bool> permanent_;
  bool armed_ = false;
  std::uint64_t crashes_ = 0;
  std::uint64_t node_losses_ = 0;
  std::uint64_t seu_hits_ = 0;
  std::uint64_t link_faults_ = 0;
};

}  // namespace ecoscale
