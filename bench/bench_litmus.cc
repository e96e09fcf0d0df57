// bench_litmus — litmus smoke over the UNIMEM memory model (DESIGN.md
// §7.10): the standard suite through both executors.
//
//  * exhaustive: every interleaving of each program against the real
//    PgasSystem; every outcome must be oracle-allowed;
//  * randomized: seed-fixed perturbation rounds on the sharded engine;
//    each program's fingerprint (outcomes + per-page serialization logs +
//    protocol counters) must equal the pinned one, or the binary exits
//    non-zero.
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

/// Each suite program's randomized fingerprint at kSeed and kRounds,
/// pinned when the directory protocol last changed (and equal at every
/// thread count the engine used to offer).
struct PinnedFingerprint {
  const char* program;
  std::uint64_t fingerprint;
};
constexpr PinnedFingerprint kPinned[] = {
    {"sb_same_page", 9817290227883707711ull},
    {"sb_two_pages", 8771896214662552771ull},
    {"mp_same_page", 13815875652545620523ull},
    {"mp_two_pages", 7024752634904895427ull},
    {"atomic_inc", 6900430055018291539ull},
    {"migration_inflight", 6021650545088094725ull},
    {"failover_lost_update", 4195163025148279472ull},
};

/// The pinned fingerprint of `program`; 0 (never a real fingerprint here)
/// if it has none.
std::uint64_t pinned_fingerprint(const std::string& program) {
  for (const PinnedFingerprint& p : kPinned) {
    if (program == p.program) return p.fingerprint;
  }
  return 0;
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  using namespace ecoscale::litmus;
  bench::init(argc, argv);

  Table table({"program", "interleavings", "exh outcomes", "allowed",
               "rand outcomes", "events", "nacks", "failovers",
               "migrations", "det"});
  bool all_within_model = true;
  bool all_pinned = true;
  std::uint64_t total_events = 0;
  std::uint64_t total_failovers = 0;
  std::uint64_t total_migrations = 0;

  for (const LitmusProgram& program : standard_suite()) {
    const Oracle oracle(program);

    ExhaustiveResult exh;
    RandomizedConfig cfg;
    cfg.seed = kSeed;
    cfg.rounds = kRounds;
    RandomizedResult seq;
    try {
      exh = check_exhaustive(program, oracle);
      seq = check_randomized(program, oracle, cfg);
    } catch (const CheckError& e) {
      std::cerr << "FATAL: " << e.what() << "\n";
      all_within_model = false;
      continue;
    }
    const bool pinned = seq.fingerprint == pinned_fingerprint(program.name);
    all_pinned = all_pinned && pinned;

    table.add_row({program.name, fmt_u64(exh.interleavings),
                   fmt_u64(exh.outcomes.size()),
                   fmt_u64(oracle.allowed().size()),
                   fmt_u64(seq.outcomes.size()), fmt_u64(seq.events),
                   fmt_u64(seq.protocol.nacks),
                   fmt_u64(seq.protocol.failovers),
                   fmt_u64(seq.protocol.migrations),
                   pinned ? "ok" : "MISMATCH"});
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
          "run fingerprint with the pinned one:");

  std::cout << "LITMUS_JSON {"
            << "\"programs\": " << standard_suite().size()
            << ", \"rounds\": " << kRounds
            << ", \"events\": " << total_events
            << ", \"failovers\": " << total_failovers
            << ", \"migrations\": " << total_migrations
            << ", \"within_model\": " << (all_within_model ? 1 : 0)
            << ", \"det_match\": " << (all_pinned ? 1 : 0) << "}\n";

  if (!all_within_model) {
    std::cerr << "FATAL: observed outcome outside the memory model\n";
    return 1;
  }
  if (!all_pinned) {
    std::cerr << "FATAL: a litmus fingerprint differs from the pinned one\n";
    return 1;
  }
  return 0;
}
