// bench_litmus — litmus smoke over the UNIMEM memory model (DESIGN.md
// §7.10): the standard suite through both executors.
//
//  * exhaustive: every interleaving of each program against the real
//    PgasSystem; every outcome must be oracle-allowed;
//  * randomized: seed-fixed perturbation rounds on the sharded engine at
//    --sim-threads 1, re-run at --sim-threads N — outcome sets AND
//    fingerprints (outcome + per-page serialization logs + protocol
//    counters) must be byte-identical, or the binary exits non-zero.
//
// Any outcome outside the partition-consistency spec is FATAL: this is a
// correctness gate dressed as a bench, mirroring how bench_serve gates
// its determinism contract.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/table.h"
#include "litmus/executor.h"
#include "litmus/oracle.h"
#include "litmus/program.h"
#include "litmus/sharded.h"

namespace ecoscale {
namespace {

constexpr std::uint64_t kSeed = 2026;
constexpr std::size_t kRounds = 48;  // fixed randomized-schedule budget

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  using namespace ecoscale::litmus;
  bench::init(argc, argv);
  std::size_t par_threads = bench::options().sim_threads;
  if (par_threads == 0) par_threads = 4;

  Table table({"program", "interleavings", "exh outcomes", "allowed",
               "rand outcomes", "events", "nacks", "failovers",
               "migrations", "det"});
  bool all_within_model = true;
  bool all_deterministic = true;
  std::uint64_t total_events = 0;
  std::uint64_t total_failovers = 0;
  std::uint64_t total_migrations = 0;

  for (const LitmusProgram& program : standard_suite()) {
    const Oracle oracle(program);

    ExhaustiveResult exh;
    RandomizedConfig cfg;
    cfg.seed = kSeed;
    cfg.rounds = kRounds;
    cfg.sim_threads = 1;
    RandomizedResult seq;
    try {
      exh = check_exhaustive(program, oracle);
      seq = check_randomized(program, oracle, cfg);
    } catch (const CheckError& e) {
      std::cerr << "FATAL: " << e.what() << "\n";
      all_within_model = false;
      continue;
    }
    cfg.sim_threads = par_threads;
    const RandomizedResult par = run_randomized(program, cfg);
    const bool det = par.fingerprint == seq.fingerprint &&
                     par.outcomes == seq.outcomes && par.events == seq.events;
    all_deterministic = all_deterministic && det;

    table.add_row({program.name, fmt_u64(exh.interleavings),
                   fmt_u64(exh.outcomes.size()),
                   fmt_u64(oracle.allowed().size()),
                   fmt_u64(seq.outcomes.size()), fmt_u64(seq.events),
                   fmt_u64(seq.protocol.nacks),
                   fmt_u64(seq.protocol.failovers),
                   fmt_u64(seq.protocol.migrations),
                   det ? "ok" : "MISMATCH"});
    total_events += seq.events;
    total_failovers += seq.protocol.failovers;
    total_migrations += seq.protocol.migrations;
  }

  bench::print_table(
      table,
      "litmus suite: exhaustive interleavings vs the partition-consistency\n"
      "oracle, then " +
          std::to_string(kRounds) +
          " perturbation rounds on the sharded engine; 'det' compares the\n"
          "run fingerprint at --sim-threads 1 vs " +
          std::to_string(par_threads) + ":");

  std::cout << "LITMUS_JSON {"
            << "\"programs\": " << standard_suite().size()
            << ", \"rounds\": " << kRounds
            << ", \"events\": " << total_events
            << ", \"failovers\": " << total_failovers
            << ", \"migrations\": " << total_migrations
            << ", \"within_model\": " << (all_within_model ? 1 : 0)
            << ", \"det_match\": " << (all_deterministic ? 1 : 0) << "}\n";

  if (!all_within_model) {
    std::cerr << "FATAL: observed outcome outside the memory model\n";
    return 1;
  }
  if (!all_deterministic) {
    std::cerr << "FATAL: litmus runs are not byte-identical across "
                 "--sim-threads\n";
    return 1;
  }
  return 0;
}
