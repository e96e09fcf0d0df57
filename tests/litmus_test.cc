// Litmus harness tests (DESIGN.md §7.10): the oracle's allowed sets for
// the classic shapes, the exhaustive executor against the real
// PgasSystem, the sharded randomized executor's model conformance and
// its pinned fingerprints, and the directory's stale-update guard under a
// page that migrates back and forth.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>

#include "common/check.h"
#include "litmus/executor.h"
#include "litmus/oracle.h"
#include "litmus/program.h"
#include "litmus/sharded.h"

namespace ecoscale::litmus {
namespace {

const LitmusProgram& suite_program(const std::string& name) {
  static const std::vector<LitmusProgram> suite = standard_suite();
  for (const LitmusProgram& p : suite) {
    if (p.name == name) return p;
  }
  ECO_CHECK_MSG(false, "no suite program named " << name);
  __builtin_unreachable();
}

/// Build an outcome from observation values + (page, var) finals.
Outcome make_outcome(const LitmusProgram& p,
                     std::vector<std::uint64_t> observations,
                     std::vector<std::uint64_t> finals) {
  ECO_CHECK(observations.size() == p.observer_slots());
  ECO_CHECK(finals.size() == p.pages * kVarsPerPage);
  Outcome o = std::move(observations);
  o.insert(o.end(), finals.begin(), finals.end());
  return o;
}

// --- DSL -------------------------------------------------------------------

TEST(LitmusProgram, ValidateRejectsSharedNodes) {
  LitmusProgram p;
  p.name = "bad";
  p.nodes = 2;
  p.pages = 1;
  p.page_owner = {0};
  p.threads = {{0, {load(0, 0)}}, {0, {load(0, 0)}}};
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(LitmusProgram, ValidateRejectsCrashOfThreadNode) {
  LitmusProgram p;
  p.name = "bad";
  p.nodes = 2;
  p.pages = 1;
  p.page_owner = {0};
  p.threads = {{0, {crash(1)}}, {1, {load(0, 0)}}};
  EXPECT_THROW(p.validate(), CheckError);
}

TEST(LitmusProgram, OutcomeLayout) {
  const LitmusProgram& sb = suite_program("sb_same_page");
  EXPECT_EQ(sb.observer_slots(), 2u);
  EXPECT_EQ(sb.outcome_size(), 2u + kVarsPerPage);
  EXPECT_EQ(sb.total_ops(), 4u);
}

// --- oracle ----------------------------------------------------------------

TEST(LitmusOracle, StoreBufferingSamePageForbidsBothZero) {
  const LitmusProgram& p = suite_program("sb_same_page");
  Oracle oracle(p);
  // One page, 4 ops interleaved: C(4,2) = 6 linearizations.
  EXPECT_EQ(oracle.linearizations(), 6u);
  // The classic forbidden outcome: both loads miss the other store.
  EXPECT_FALSE(oracle.allows(make_outcome(p, {0, 0}, {1, 1, 0, 0})));
  // Every weaker observation is allowed.
  EXPECT_TRUE(oracle.allows(make_outcome(p, {0, 1}, {1, 1, 0, 0})));
  EXPECT_TRUE(oracle.allows(make_outcome(p, {1, 0}, {1, 1, 0, 0})));
  EXPECT_TRUE(oracle.allows(make_outcome(p, {1, 1}, {1, 1, 0, 0})));
  // Final values are part of the outcome: dropping a store is forbidden.
  EXPECT_FALSE(oracle.allows(make_outcome(p, {1, 1}, {1, 0, 0, 0})));
}

TEST(LitmusOracle, StoreBufferingTwoPagesAllowsBothZero) {
  const LitmusProgram& p = suite_program("sb_two_pages");
  Oracle oracle(p);
  // Per-page independence: the SC-forbidden outcome is allowed here.
  EXPECT_TRUE(oracle.allows(
      make_outcome(p, {0, 0}, {1, 0, 0, 0, 1, 0, 0, 0})));
}

TEST(LitmusOracle, MessagePassingSamePageForbidsStaleData) {
  const LitmusProgram& p = suite_program("mp_same_page");
  Oracle oracle(p);
  // flag observed set but data stale: impossible within one page's order.
  EXPECT_FALSE(oracle.allows(make_outcome(p, {1, 0}, {1, 1, 0, 0})));
  EXPECT_TRUE(oracle.allows(make_outcome(p, {0, 0}, {1, 1, 0, 0})));
  EXPECT_TRUE(oracle.allows(make_outcome(p, {1, 1}, {1, 1, 0, 0})));
  EXPECT_TRUE(oracle.allows(make_outcome(p, {0, 1}, {1, 1, 0, 0})));
}

TEST(LitmusOracle, MessagePassingTwoPagesAllowsStaleData) {
  const LitmusProgram& p = suite_program("mp_two_pages");
  Oracle oracle(p);
  EXPECT_TRUE(oracle.allows(
      make_outcome(p, {1, 0}, {1, 0, 0, 0, 1, 0, 0, 0})));
}

TEST(LitmusOracle, AtomicIncrementsNeverLoseUpdates) {
  const LitmusProgram& p = suite_program("atomic_inc");
  Oracle oracle(p);
  // 3 single-op threads: 3! linearizations, old values a permutation of
  // {0, 1, 2}, final exactly 3.
  EXPECT_EQ(oracle.linearizations(), 6u);
  for (const Outcome& o : oracle.allowed()) {
    std::set<std::uint64_t> olds(o.begin(), o.begin() + 3);
    EXPECT_EQ(olds, (std::set<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(o[3], 3u);  // final v0
  }
  EXPECT_FALSE(oracle.allows(make_outcome(p, {0, 0, 1}, {2, 0, 0, 0})));
}

TEST(LitmusOracle, MigrationLoadsNeverRegress) {
  const LitmusProgram& p = suite_program("migration_inflight");
  Oracle oracle(p);
  // t2 loads twice; the page's total order makes regressions impossible.
  for (const Outcome& o : oracle.allowed()) {
    EXPECT_LE(o[1], o[2]) << format_outcome(p, o);  // t2.op0 <= t2.op1
    EXPECT_EQ(o[3], 2u) << format_outcome(p, o);    // final v0
  }
  EXPECT_FALSE(oracle.allows(make_outcome(p, {2, 2, 1}, {2, 0, 0, 0})));
}

TEST(LitmusOracle, FailoverPreservesProgramOrderAndFinalValue) {
  const LitmusProgram& p = suite_program("failover_lost_update");
  Oracle oracle(p);
  for (const Outcome& o : oracle.allowed()) {
    EXPECT_EQ(o[0], 1u) << format_outcome(p, o);  // t0 reads its own store
    EXPECT_EQ(o[2], 1u) << format_outcome(p, o);  // final v0 survives
  }
  // The lost-update outcome failover must never produce.
  EXPECT_FALSE(oracle.allows(make_outcome(p, {0, 0}, {0, 0, 0, 0})));
}

TEST(LitmusOracle, CheckOutcomesThrowsOnForbidden) {
  const LitmusProgram& p = suite_program("sb_same_page");
  Oracle oracle(p);
  const Outcome forbidden = make_outcome(p, {0, 0}, {1, 1, 0, 0});
  EXPECT_THROW(check_outcomes(oracle, {forbidden}, "test executor"),
               CheckError);
  // An allowed set passes silently.
  check_outcomes(oracle, {make_outcome(p, {1, 1}, {1, 1, 0, 0})}, "test");
}

// --- exhaustive executor (real PgasSystem) ---------------------------------

TEST(LitmusExhaustive, SuiteStaysWithinTheModel) {
  for (const LitmusProgram& p : standard_suite()) {
    Oracle oracle(p);
    const ExhaustiveResult res = check_exhaustive(p, oracle);
    EXPECT_GT(res.interleavings, 0u) << p.name;
    EXPECT_FALSE(res.outcomes.empty()) << p.name;
    // The observation hooks fire on every memory access of every run.
    EXPECT_GT(res.observed_accesses, 0u) << p.name;
  }
}

TEST(LitmusExhaustive, SpecificScheduleProducesExactOutcome) {
  const LitmusProgram& p = suite_program("sb_same_page");
  // Both stores, then both loads: each load sees the other's store.
  const Outcome o = run_schedule(p, {0, 1, 0, 1});
  EXPECT_EQ(o, make_outcome(p, {1, 1}, {1, 1, 0, 0}));
  // Fully serial t0 then t1: t0's load misses t1's store.
  const Outcome serial = run_schedule(p, {0, 0, 1, 1});
  EXPECT_EQ(serial, make_outcome(p, {0, 1}, {1, 1, 0, 0}));
}

TEST(LitmusExhaustive, MigrationExercisesOwnershipHooks) {
  const LitmusProgram& p = suite_program("migration_inflight");
  Oracle oracle(p);
  const ExhaustiveResult res = check_exhaustive(p, oracle);
  // Every interleaving migrates exactly once.
  EXPECT_EQ(res.ownership_changes, res.interleavings);
}

TEST(LitmusExhaustive, FailoverExercisesRetryAndRehomeHooks) {
  const LitmusProgram& p = suite_program("failover_lost_update");
  Oracle oracle(p);
  const ExhaustiveResult res = check_exhaustive(p, oracle);
  // Interleavings where the crash precedes a remote access pay the full
  // bounded-retry + failover path — visible through the observer.
  EXPECT_GT(res.retries, 0u);
  EXPECT_GT(res.ownership_changes, 0u);
}

TEST(LitmusExhaustive, RefusesOversizedPrograms) {
  LitmusProgram p;
  p.name = "huge";
  p.nodes = 4;
  p.pages = 1;
  p.page_owner = {0};
  for (NodeId n = 0; n < 4; ++n) {
    LitmusThread t;
    t.node = n;
    for (int i = 0; i < 4; ++i) t.ops.push_back(store(0, 0, 1));
    p.threads.push_back(std::move(t));
  }
  // 16! / (4!)^4 = 63,063,000 interleavings: exhaustive must refuse.
  EXPECT_THROW(run_exhaustive(p), CheckError);
}

// --- sharded randomized executor -------------------------------------------

RandomizedConfig quick_config() {
  RandomizedConfig c;
  c.seed = 42;
  c.rounds = 24;
  return c;
}

TEST(LitmusSharded, SuiteStaysWithinTheModel) {
  for (const LitmusProgram& p : standard_suite()) {
    Oracle oracle(p);
    const RandomizedResult res =
        check_randomized(p, oracle, quick_config());
    EXPECT_FALSE(res.outcomes.empty()) << p.name;
    EXPECT_GT(res.events, 0u) << p.name;
  }
}

TEST(LitmusSharded, PerturbationExploresMultipleOutcomes) {
  const LitmusProgram& p = suite_program("sb_same_page");
  Oracle oracle(p);
  const RandomizedResult res = check_randomized(p, oracle, quick_config());
  // Timing jitter must actually reorder the racing accesses.
  EXPECT_GE(res.outcomes.size(), 2u);
}

TEST(LitmusSharded, MigrationReHomesThePage) {
  const LitmusProgram& p = suite_program("migration_inflight");
  Oracle oracle(p);
  const RandomizedResult res = check_randomized(p, oracle, quick_config());
  // One explicit migrate per round, no losses.
  EXPECT_EQ(res.protocol.migrations, 24u);
}

TEST(LitmusSharded, CrashDrivesNacksAndFailover) {
  const LitmusProgram& p = suite_program("failover_lost_update");
  Oracle oracle(p);
  const RandomizedResult res = check_randomized(p, oracle, quick_config());
  // With the crash racing the loads across 24 seeds, some schedules must
  // hit the dead owner and at least one must exhaust retries into
  // failover (deterministic for the fixed seed).
  EXPECT_GT(res.protocol.nacks, 0u);
  EXPECT_GT(res.protocol.failovers, 0u);
}

// Captured before the engine's host threads were deleted; every thread
// count the engine offered gave these values.
TEST(LitmusSharded, FingerprintsArePinned) {
  struct Pinned {
    const char* name;
    std::uint64_t fingerprint;
    std::uint64_t events;
    std::uint64_t nacks;
    std::uint64_t failovers;
    std::size_t outcomes;
  };
  const Pinned pinned[] = {
      {"sb_same_page", 13518656571247082435ull, 240, 0, 0, 2},
      {"sb_two_pages", 13374788336026817379ull, 240, 0, 0, 1},
      {"mp_same_page", 17038629230388646587ull, 240, 0, 0, 2},
      {"mp_two_pages", 2530068666136878755ull, 240, 0, 0, 1},
      {"atomic_inc", 8829904413258177623ull, 192, 0, 0, 3},
      {"migration_inflight", 11273683491415323580ull, 462, 0, 0, 4},
      {"failover_lost_update", 4486869965316721315ull, 572, 88, 22, 2},
  };
  ASSERT_EQ(standard_suite().size(), std::size(pinned));
  for (const Pinned& want : pinned) {
    const RandomizedResult r =
        run_randomized(suite_program(want.name), quick_config());
    EXPECT_EQ(r.fingerprint, want.fingerprint) << want.name;
    EXPECT_EQ(r.events, want.events) << want.name;
    EXPECT_EQ(r.protocol.nacks, want.nacks) << want.name;
    EXPECT_EQ(r.protocol.failovers, want.failovers) << want.name;
    EXPECT_EQ(r.outcomes.size(), want.outcomes) << want.name;
  }
}

// One page migrates back and forth between nodes 0 and 1 while node 2
// reads it. If an owner update naming the other node reached a node that
// had already pulled the page back, the directory's stale-update guard
// would have to keep that holder's view, or the page would end up with no
// holder (FATAL in holder()) or a request would forward around a cycle
// (FATAL at the hop bound). Installs and their broadcasts all travel one
// fixed hop, so between two nodes they arrive in send order and this
// program alone never sends a holder a stale update; the failover variant
// below does.
LitmusProgram migration_ping_pong() {
  LitmusProgram p;
  p.name = "migration_ping_pong";
  p.nodes = 3;
  p.pages = 1;
  p.page_owner = {0};
  p.threads = {{0, {migrate(0, 1), store(0, 0, 1), migrate(0, 1)}},
               {1, {migrate(0, 0), store(0, 0, 2), migrate(0, 0)}},
               {2, {load(0, 0), load(0, 0), load(0, 0)}}};
  p.validate();
  return p;
}

TEST(LitmusSharded, PageMigratingBackAndForthKeepsOneHolder) {
  const LitmusProgram p = migration_ping_pong();
  const Oracle oracle(p);
  RandomizedConfig c = quick_config();
  c.rounds = 256;
  const RandomizedResult res = check_randomized(p, oracle, c);
  // Four migrate ops per round, each served once by the page's holder.
  EXPECT_EQ(res.protocol.migrations, 4u * c.rounds);
  EXPECT_GE(res.outcomes.size(), 2u);
}

// The same back-and-forth after a crash: the page's home (node 3, no
// program thread) dies, node 0 and node 1 both time out on it and fetch
// the page, and one of them moves it on to the other. A failover fetch
// that finds the page gone answers with the dead node's view, so that
// answer can reach a requester that holds the page by then — the stale
// update the guard exists for. Without the guard a request forwards
// around a cycle within these rounds.
TEST(LitmusSharded, PageMigratingBackAndForthAfterFailoverKeepsOneHolder) {
  LitmusProgram p;
  p.name = "failover_ping_pong";
  p.nodes = 4;
  p.pages = 1;
  p.page_owner = {3};
  p.threads = {{0, {crash(3), load(0, 0), migrate(0, 1), load(0, 0)}},
               {1, {load(0, 0), migrate(0, 0), store(0, 0, 1)}},
               {2, {load(0, 0), load(0, 0), load(0, 0)}}};
  p.validate();
  const Oracle oracle(p);
  RandomizedConfig c = quick_config();
  c.rounds = 256;
  const RandomizedResult res = check_randomized(p, oracle, c);
  EXPECT_EQ(res.protocol.migrations, 2u * c.rounds);
  EXPECT_GT(res.protocol.failovers, 0u);
}

TEST(LitmusSharded, ExecutorsAgreeWithEachOther) {
  // Every op in both executors completes before its thread's next op
  // issues, so for fault-free single-page programs the randomized
  // outcomes must be a subset of the exhaustive executor's interleaving
  // set (which itself sits inside the oracle's allowed set — the oracle
  // is strictly more permissive across pages).
  for (const char* name : {"sb_same_page", "mp_same_page", "atomic_inc"}) {
    const LitmusProgram& p = suite_program(name);
    Oracle oracle(p);
    const ExhaustiveResult exh = check_exhaustive(p, oracle);
    RandomizedConfig c = quick_config();
    c.rounds = 64;
    const RandomizedResult rand = check_randomized(p, oracle, c);
    for (const Outcome& o : rand.outcomes) {
      EXPECT_TRUE(exh.outcomes.count(o))
          << name << ": randomized-only outcome " << format_outcome(p, o);
    }
  }
}

}  // namespace
}  // namespace ecoscale::litmus
