// Litmus-test DSL for the UNIMEM memory model (DESIGN.md §7.10).
//
// A LitmusProgram is a tiny multi-node workload in the classic litmus
// shape: 2–4 threads, each pinned to a *distinct* Compute Node, issuing a
// short straight-line sequence of PGAS operations against 1–2 shared
// pages, plus the two UNIMEM-specific edge kinds the model has to survive
// — page migration and owner crash/failover. Each page holds
// kVarsPerPage independent 8-byte variables (litmus "locations"), all
// initially zero.
//
// The *outcome* of one execution is a fixed-layout vector of uint64s:
// every value-observing op (load, atomic) contributes one slot in
// (thread-major, program-order) order, followed by the final value of
// every (page, var) slot. Executors produce outcomes; the oracle
// (oracle.h) produces the set the memory model allows.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "unimem/pgas.h"

namespace ecoscale::litmus {

/// Variables (8-byte slots) per shared page. Two same-page variables are
/// what the "adapted to per-page owner order" litmus shapes need.
inline constexpr std::size_t kVarsPerPage = 4;

/// The dead-owner retry contract both executors run. The waits are short
/// because crash litmuses take the full retry + failover path thousands
/// of times.
inline constexpr RetryPolicy kLitmusRetry{3, microseconds(2),
                                          microseconds(1)};

enum class OpKind : std::uint8_t {
  kLoad,     // observe var
  kStore,    // write value to var
  kAtomic,   // RMW on var, observes the old value
  kMigrate,  // move page ownership to dst_node
  kCrash,    // take every worker of dst_node down
  kRepair,   // bring every worker of dst_node back up
};

struct Op {
  OpKind kind = OpKind::kLoad;
  std::uint8_t page = 0;
  std::uint8_t var = 0;
  std::uint64_t value = 0;    // store value / atomic operand
  std::uint64_t compare = 0;  // kCompareSwap expected value
  AtomicOp atomic = AtomicOp::kFetchAdd;
  NodeId dst_node = 0;  // kMigrate destination / kCrash / kRepair target

  bool is_memory() const {
    return kind == OpKind::kLoad || kind == OpKind::kStore ||
           kind == OpKind::kAtomic;
  }
  bool observes() const {
    return kind == OpKind::kLoad || kind == OpKind::kAtomic;
  }
  bool writes() const {
    return kind == OpKind::kStore || kind == OpKind::kAtomic;
  }
};

inline Op load(std::uint8_t page, std::uint8_t var) {
  return Op{OpKind::kLoad, page, var};
}
inline Op store(std::uint8_t page, std::uint8_t var, std::uint64_t value) {
  return Op{OpKind::kStore, page, var, value};
}
inline Op fetch_add(std::uint8_t page, std::uint8_t var,
                    std::uint64_t operand) {
  return Op{OpKind::kAtomic, page, var, operand, 0, AtomicOp::kFetchAdd};
}
inline Op swap(std::uint8_t page, std::uint8_t var, std::uint64_t value) {
  return Op{OpKind::kAtomic, page, var, value, 0, AtomicOp::kSwap};
}
inline Op compare_swap(std::uint8_t page, std::uint8_t var,
                       std::uint64_t expected, std::uint64_t desired) {
  return Op{OpKind::kAtomic, page, var, desired, expected,
            AtomicOp::kCompareSwap};
}
inline Op migrate(std::uint8_t page, NodeId dst) {
  Op op{OpKind::kMigrate, page};
  op.dst_node = dst;
  return op;
}
inline Op crash(NodeId node) {
  Op op{OpKind::kCrash};
  op.dst_node = node;
  return op;
}
inline Op repair(NodeId node) {
  Op op{OpKind::kRepair};
  op.dst_node = node;
  return op;
}

/// Reference semantics of one memory op against a page's variables:
/// mutates `vars` and returns the observed value (load: current value,
/// atomic: old value, store: 0/ignored). This is the single definition of
/// value behaviour shared by the oracle and the randomized executor;
/// it matches PgasSystem::atomic_rmw exactly.
inline std::uint64_t apply_memory_op(const Op& op,
                                     std::uint64_t vars[kVarsPerPage]) {
  switch (op.kind) {
    case OpKind::kLoad:
      return vars[op.var];
    case OpKind::kStore:
      vars[op.var] = op.value;
      return 0;
    case OpKind::kAtomic: {
      const std::uint64_t old = vars[op.var];
      switch (op.atomic) {
        case AtomicOp::kFetchAdd:
          vars[op.var] = old + op.value;
          break;
        case AtomicOp::kSwap:
          vars[op.var] = op.value;
          break;
        case AtomicOp::kCompareSwap:
          if (old == op.compare) vars[op.var] = op.value;
          break;
        case AtomicOp::kFetchOr:
          vars[op.var] = old | op.value;
          break;
      }
      return old;
    }
    default:
      break;
  }
  return 0;
}

struct LitmusThread {
  NodeId node = 0;  // each thread runs on worker 0 of its own node
  std::vector<Op> ops;
};

/// One execution's result: observed values in (thread, program-order)
/// slot order, then final memory in (page, var) order.
using Outcome = std::vector<std::uint64_t>;

struct LitmusProgram {
  std::string name;
  std::size_t nodes = 2;                // machine size
  std::size_t pages = 1;                // shared pages
  std::vector<NodeId> page_owner;       // initial owner per page
  std::vector<LitmusThread> threads;

  std::size_t observer_slots() const {
    std::size_t n = 0;
    for (const auto& t : threads) {
      for (const auto& op : t.ops) n += op.observes() ? 1 : 0;
    }
    return n;
  }
  std::size_t outcome_size() const {
    return observer_slots() + pages * kVarsPerPage;
  }
  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& t : threads) n += t.ops.size();
    return n;
  }

  /// Structural validity: distinct nodes per thread, in-range pages/vars/
  /// nodes, and no crash of a node that still has program ops of its own
  /// (its thread could not issue them — see DESIGN.md §7.10).
  void validate() const {
    ECO_CHECK_MSG(threads.size() >= 2 && threads.size() <= 4,
                  "litmus programs use 2-4 threads");
    ECO_CHECK_MSG(pages >= 1 && pages <= 2, "litmus programs use 1-2 pages");
    ECO_CHECK(page_owner.size() == pages);
    for (const NodeId o : page_owner) ECO_CHECK(o < nodes);
    for (std::size_t i = 0; i < threads.size(); ++i) {
      ECO_CHECK(threads[i].node < nodes);
      for (std::size_t j = 0; j < i; ++j) {
        ECO_CHECK_MSG(threads[i].node != threads[j].node,
                      "litmus threads must sit on distinct nodes");
      }
      for (const Op& op : threads[i].ops) {
        if (op.is_memory()) {
          ECO_CHECK(op.page < pages && op.var < kVarsPerPage);
        } else {
          ECO_CHECK(op.kind != OpKind::kMigrate || op.page < pages);
          ECO_CHECK(op.dst_node < nodes);
        }
        if (op.kind == OpKind::kCrash) {
          for (const auto& t : threads) {
            ECO_CHECK_MSG(t.node != op.dst_node,
                          "litmus programs must not crash a node that "
                          "hosts a program thread");
          }
        }
      }
    }
  }
};

/// Render an outcome against a program's slot layout, for failure
/// messages: "t0.op2=1 t1.op0=0 | p0.v1=2 ...".
std::string format_outcome(const LitmusProgram& program,
                           const Outcome& outcome);

/// The standard suite: the classic shapes adapted to per-page owner
/// order (store buffering and message passing, same-page forbidden vs
/// cross-page allowed), atomic counters, a migration-edge litmus and a
/// crash/failover-edge litmus. Used by tests/litmus_test.cc and
/// bench/bench_litmus.cc.
std::vector<LitmusProgram> standard_suite();

}  // namespace ecoscale::litmus
