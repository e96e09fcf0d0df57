// Randomized concurrent litmus executor on the sharded engine.
//
// The exhaustive executor (executor.h) serializes every interleaving; this
// one runs the program as concurrent traffic on a ShardedSimulator, one
// shard per Compute Node. Ownership is the ShardedDirectory
// (unimem/directory.h) that serving and repartitioning also run: routing
// by per-node views, forwarding, in-flight migration with owner-update
// broadcasts, and the dead-owner nack → kLitmusRetry → failover path. This
// file adds only the program logic, the page payload (variables and
// serialization log) and the schedule perturbation: every requester-side
// departure carries a SchedulePerturb jitter, a pure hash of (seed,
// thread, draw#), so a run is a pure function of (program, seed): same
// outcomes, logs, fingerprint.
#pragma once

#include <cstdint>
#include <set>

#include "litmus/oracle.h"
#include "litmus/program.h"
#include "unimem/directory.h"

namespace ecoscale::litmus {

struct RandomizedConfig {
  std::uint64_t seed = 1;
  /// Randomized schedules (independent perturbation seeds) per program.
  std::size_t rounds = 64;
};

/// Aggregate over `rounds` seeds. Each round's fingerprint hashes its
/// outcome, every page's final owner and serialization log, and the
/// directory's counters; `fingerprint` chains them — the value the
/// determinism checks pin.
struct RandomizedResult {
  std::set<Outcome> outcomes;
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  ShardedDirectory::Counters protocol;
};

/// Round r perturbs with a seed derived from (config.seed, r).
RandomizedResult run_randomized(const LitmusProgram& program,
                                const RandomizedConfig& config);

/// run_randomized, then assert every observed outcome is oracle-allowed.
RandomizedResult check_randomized(const LitmusProgram& program,
                                  const Oracle& oracle,
                                  const RandomizedConfig& config);

}  // namespace ecoscale::litmus
