// Litmus harness tests (DESIGN.md §7.10): the oracle's allowed sets for
// the classic shapes, the exhaustive executor against the real
// PgasSystem, the sharded randomized executor's model conformance and
// its --sim-threads byte-identity contract.
#include <gtest/gtest.h>

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

RandomizedConfig quick_config(std::size_t sim_threads) {
  RandomizedConfig c;
  c.sim_threads = sim_threads;
  c.seed = 42;
  c.rounds = 24;
  return c;
}

TEST(LitmusSharded, SuiteStaysWithinTheModel) {
  for (const LitmusProgram& p : standard_suite()) {
    Oracle oracle(p);
    const RandomizedResult res =
        check_randomized(p, oracle, quick_config(1));
    EXPECT_FALSE(res.outcomes.empty()) << p.name;
    EXPECT_GT(res.events, 0u) << p.name;
  }
}

TEST(LitmusSharded, PerturbationExploresMultipleOutcomes) {
  const LitmusProgram& p = suite_program("sb_same_page");
  Oracle oracle(p);
  const RandomizedResult res = check_randomized(p, oracle, quick_config(1));
  // Timing jitter must actually reorder the racing accesses.
  EXPECT_GE(res.outcomes.size(), 2u);
}

TEST(LitmusSharded, MigrationReHomesThePage) {
  const LitmusProgram& p = suite_program("migration_inflight");
  Oracle oracle(p);
  const RandomizedResult res = check_randomized(p, oracle, quick_config(1));
  // One explicit migrate per round, no losses.
  EXPECT_EQ(res.protocol.migrations, 24u);
}

TEST(LitmusSharded, CrashDrivesNacksAndFailover) {
  const LitmusProgram& p = suite_program("failover_lost_update");
  Oracle oracle(p);
  const RandomizedResult res = check_randomized(p, oracle, quick_config(1));
  // With the crash racing the loads across 24 seeds, some schedules must
  // hit the dead owner and at least one must exhaust retries into
  // failover (deterministic for the fixed seed).
  EXPECT_GT(res.protocol.nacks, 0u);
  EXPECT_GT(res.protocol.failovers, 0u);
}

TEST(LitmusSharded, ByteIdenticalAcrossSimThreads) {
  for (const LitmusProgram& p : standard_suite()) {
    const RandomizedResult seq = run_randomized(p, quick_config(1));
    const RandomizedResult par = run_randomized(p, quick_config(4));
    EXPECT_EQ(seq.fingerprint, par.fingerprint) << p.name;
    EXPECT_EQ(seq.outcomes, par.outcomes) << p.name;
    EXPECT_EQ(seq.events, par.events) << p.name;
    EXPECT_EQ(seq.protocol.nacks, par.protocol.nacks) << p.name;
    EXPECT_EQ(seq.protocol.failovers, par.protocol.failovers) << p.name;
  }
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
    RandomizedConfig c = quick_config(1);
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
