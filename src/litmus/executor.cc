#include "litmus/executor.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "common/health.h"
#include "common/units.h"
#include "unimem/pgas.h"

namespace ecoscale::litmus {

namespace {

constexpr std::size_t kNoSlot = ~std::size_t{0};

std::uint64_t read_u64(const PgasSystem& pgas, GlobalAddress addr) {
  std::uint8_t buf[8] = {};
  pgas.read_bytes(addr, buf);
  std::uint64_t v = 0;
  std::memcpy(&v, buf, sizeof v);
  return v;
}

void write_u64(PgasSystem& pgas, GlobalAddress addr, std::uint64_t v) {
  std::uint8_t buf[8];
  std::memcpy(buf, &v, sizeof v);
  pgas.write_bytes(addr, buf);
}

struct HookCounters {
  std::uint64_t accesses = 0;
  std::uint64_t ownership_changes = 0;
  std::uint64_t retries = 0;
};

/// Execute one thread-id schedule against a fresh PgasSystem. The time
/// cursor is monotone across ops, so the real system serializes them in
/// exactly the schedule's order; values flow through the functional
/// backing store (loads/stores) and atomic_rmw (exact), and crash/repair
/// edges script the HealthRegistry the dead-owner path consults.
Outcome execute(const LitmusProgram& program,
                const std::vector<std::size_t>& schedule,
                HookCounters* hooks) {
  PgasConfig cfg;
  cfg.nodes = program.nodes;
  cfg.workers_per_node = 1;
  cfg.fault_retry = kLitmusRetry;
  PgasSystem pgas(cfg);
  HealthRegistry health(program.nodes, /*workers_per_node=*/1);
  pgas.set_health(&health);

  PgasObserver observer;
  if (hooks != nullptr) {
    observer.on_access = [hooks](const PgasObserver::Access&) {
      ++hooks->accesses;
    };
    observer.on_ownership_change = [hooks](PageId, NodeId, NodeId, SimTime,
                                           SimTime, bool) {
      ++hooks->ownership_changes;
    };
    observer.on_retry = [hooks](WorkerCoord, PageId, std::size_t, SimTime) {
      ++hooks->retries;
    };
  }
  pgas.set_observer(&observer);

  std::vector<GlobalAddress> base;
  base.reserve(program.pages);
  for (std::size_t p = 0; p < program.pages; ++p) {
    base.push_back(pgas.alloc(program.page_owner[p], 0, kPageSize));
  }

  std::vector<std::vector<std::size_t>> slot_of(program.threads.size());
  std::size_t next_slot = 0;
  for (std::size_t t = 0; t < program.threads.size(); ++t) {
    for (const Op& op : program.threads[t].ops) {
      slot_of[t].push_back(op.observes() ? next_slot++ : kNoSlot);
    }
  }

  Outcome out(program.outcome_size(), 0);
  std::vector<std::size_t> cursor(program.threads.size(), 0);
  SimTime now = 0;
  for (const std::size_t t : schedule) {
    ECO_CHECK_MSG(t < program.threads.size() &&
                      cursor[t] < program.threads[t].ops.size(),
                  "schedule does not match the program's op counts");
    const Op& op = program.threads[t].ops[cursor[t]];
    const WorkerCoord who{program.threads[t].node, 0};
    switch (op.kind) {
      case OpKind::kLoad: {
        const GlobalAddress addr = base[op.page] + op.var * 8;
        const MemAccess r = pgas.load(who, addr, 8, now);
        out[slot_of[t][cursor[t]]] = read_u64(pgas, addr);
        now = std::max(now, r.finish);
        break;
      }
      case OpKind::kStore: {
        const GlobalAddress addr = base[op.page] + op.var * 8;
        const MemAccess r = pgas.store(who, addr, 8, now);
        write_u64(pgas, addr, op.value);
        now = std::max(now, r.finish);
        break;
      }
      case OpKind::kAtomic: {
        const GlobalAddress addr = base[op.page] + op.var * 8;
        const AtomicResult r =
            pgas.atomic_rmw(who, addr, op.atomic, op.value, now, op.compare);
        out[slot_of[t][cursor[t]]] = r.old_value;
        now = std::max(now, r.finish);
        break;
      }
      case OpKind::kMigrate: {
        const MigrationResult r =
            pgas.migrate_page(page_of(base[op.page]), op.dst_node, now);
        now = std::max(now, r.finish);
        break;
      }
      case OpKind::kCrash:
        health.mark_down(op.dst_node);  // workers_per_node == 1
        break;
      case OpKind::kRepair:
        health.mark_up(op.dst_node);
        break;
    }
    ++cursor[t];
    ++now;  // strict serialization between schedule steps
  }

  const std::size_t obs_slots = program.observer_slots();
  for (std::size_t p = 0; p < program.pages; ++p) {
    for (std::size_t v = 0; v < kVarsPerPage; ++v) {
      out[obs_slots + p * kVarsPerPage + v] =
          read_u64(pgas, base[p] + v * 8);
    }
  }
  return out;
}

std::size_t interleaving_count(const LitmusProgram& program) {
  // multinomial(total; n_0, ..., n_k), built incrementally as
  // prod C(prefix_total, n_t) — each factor divides exactly.
  std::size_t count = 1;
  std::size_t total = 0;
  for (const auto& t : program.threads) {
    for (std::size_t i = 1; i <= t.ops.size(); ++i) {
      ++total;
      count = count * total / i;
    }
  }
  return count;
}

}  // namespace

Outcome run_schedule(const LitmusProgram& program,
                     const std::vector<std::size_t>& schedule) {
  program.validate();
  ECO_CHECK(schedule.size() == program.total_ops());
  return execute(program, schedule, nullptr);
}

ExhaustiveResult run_exhaustive(const LitmusProgram& program,
                                ExhaustiveOptions options) {
  program.validate();
  ECO_CHECK_MSG(interleaving_count(program) <= options.max_interleavings,
                "program '" << program.name
                            << "' has too many interleavings to enumerate; "
                               "use the randomized sharded executor");

  ExhaustiveResult result;
  HookCounters hooks;
  std::vector<std::size_t> schedule;
  std::vector<std::size_t> remaining(program.threads.size());
  for (std::size_t t = 0; t < program.threads.size(); ++t) {
    remaining[t] = program.threads[t].ops.size();
  }
  std::function<void()> dfs = [&] {
    if (schedule.size() == program.total_ops()) {
      ++result.interleavings;
      result.outcomes.insert(execute(program, schedule, &hooks));
      return;
    }
    for (std::size_t t = 0; t < program.threads.size(); ++t) {
      if (remaining[t] == 0) continue;
      --remaining[t];
      schedule.push_back(t);
      dfs();
      schedule.pop_back();
      ++remaining[t];
    }
  };
  dfs();
  result.observed_accesses = hooks.accesses;
  result.ownership_changes = hooks.ownership_changes;
  result.retries = hooks.retries;
  return result;
}

ExhaustiveResult check_exhaustive(const LitmusProgram& program,
                                  const Oracle& oracle,
                                  ExhaustiveOptions options) {
  ExhaustiveResult result = run_exhaustive(program, options);
  check_outcomes(oracle, result.outcomes, "exhaustive executor");
  return result;
}

}  // namespace ecoscale::litmus
