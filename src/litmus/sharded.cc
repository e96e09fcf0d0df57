#include "litmus/sharded.h"

#include <array>
#include <vector>

#include "common/check.h"
#include "common/fingerprint.h"
#include "sim/perturb.h"

namespace ecoscale::litmus {

namespace {

constexpr std::size_t kNoSlot = ~std::size_t{0};
constexpr std::uint8_t kMarkerThread = 0xff;  // ownership-change log entry
/// Cross-shard hop latency; doubles as the engine lookahead.
constexpr SimDuration kHop = nanoseconds(200);
/// Largest perturbation added to a requester-side departure.
constexpr SimDuration kMaxJitter = nanoseconds(500);
/// Delay between a thread's op completing and its next op issuing.
constexpr SimDuration kLocalDelay = nanoseconds(20);

/// One entry of a page's serialization log. Memory ops append
/// (thread, op index, kind, value stored/observed); ownership changes
/// append a marker, so the log also witnesses where the order re-homed.
struct LogEntry {
  std::uint8_t thread = 0;
  std::uint8_t op_index = 0;
  std::uint8_t kind = 0;
  std::uint64_t value = 0;
};

/// A page's payload. Only the page's current holder touches it, and the
/// holder changes only by a directory transfer message, so no two engine
/// threads ever share it.
struct PageState {
  std::array<std::uint64_t, kVarsPerPage> vars{};
  std::vector<LogEntry> log;
};

struct ThreadState {
  std::size_t cursor = 0;   // next op (program order)
  std::uint64_t draws = 0;  // jitter stream position
};

class ShardedLitmusRun final : public DirectoryClient {
 public:
  ShardedLitmusRun(const LitmusProgram& program,
                   const RandomizedConfig& config, std::uint64_t round)
      : program_(program),
        perturb_(config.seed + 0x9e3779b97f4a7c15ull * (round + 1)),
        sim_([&] {
          ShardedConfig sc;
          sc.shards = program.nodes;
          sc.lookahead = kHop;
          return sc;
        }()),
        dir_(sim_, kHop, kLitmusRetry, *this,
             std::vector<std::uint32_t>(program.page_owner.begin(),
                                        program.page_owner.end())) {
    program_.validate();
    pages_.resize(program_.pages);
    threads_.resize(program_.threads.size());
    slot_of_.resize(program_.threads.size());
    std::size_t next_slot = 0;
    for (std::size_t t = 0; t < program_.threads.size(); ++t) {
      for (const Op& op : program_.threads[t].ops) {
        slot_of_[t].push_back(op.observes() ? next_slot++ : kNoSlot);
      }
    }
    outcome_.assign(program_.outcome_size(), 0);
  }

  /// Run the round and fold it into `result`.
  void run(RandomizedResult& result) {
    for (std::size_t t = 0; t < program_.threads.size(); ++t) {
      if (program_.threads[t].ops.empty()) continue;
      sim_.shard(home(t)).schedule_at(1 + jitter(t), [this, t] { issue(t); });
    }
    sim_.run();

    for (std::size_t t = 0; t < threads_.size(); ++t) {
      ECO_CHECK_MSG(threads_[t].cursor == program_.threads[t].ops.size(),
                    "litmus thread " << t << " did not complete");
    }

    const std::size_t obs_slots = program_.observer_slots();
    std::uint64_t fp = kFnvOffset;
    for (std::uint32_t p = 0; p < program_.pages; ++p) {
      const PageState& page = pages_[p];
      for (std::size_t v = 0; v < kVarsPerPage; ++v) {
        outcome_[obs_slots + p * kVarsPerPage + v] = page.vars[v];
      }
      fp = fnv_word(fp, dir_.holder(p));
      fp = fnv_word(fp, page.log.size());
      for (const LogEntry& e : page.log) {
        fp = fnv_word(fp, (std::uint64_t{e.thread} << 16) |
                              (std::uint64_t{e.op_index} << 8) | e.kind);
        fp = fnv_word(fp, e.value);
      }
    }
    for (const std::uint64_t v : outcome_) fp = fnv_word(fp, v);
    const ShardedDirectory::Counters c = dir_.counters();
    for (const std::uint64_t v :
         {c.nacks, c.retries, c.failovers, c.migrations, c.forwards}) {
      fp = fnv_word(fp, v);
    }
    result.outcomes.insert(outcome_);
    result.fingerprint = fnv_word(result.fingerprint, fp);
    result.events += sim_.events_processed();
    result.protocol += c;
  }

  // DirectoryClient --------------------------------------------------------

  /// Serialize the op at holder `d`: apply to the page, append to its log,
  /// return the observation to the requester.
  void serve(std::size_t d, const DirRequest& req) override {
    const std::size_t t = req.tag >> 32;
    const std::size_t op_index = req.tag & 0xffffffff;
    const Op& op = program_.threads[t].ops[op_index];
    PageState& page = pages_[req.item];
    const std::uint64_t observed = apply_memory_op(op, page.vars.data());
    page.log.push_back(LogEntry{static_cast<std::uint8_t>(t),
                                static_cast<std::uint8_t>(op_index),
                                static_cast<std::uint8_t>(op.kind),
                                op.observes() ? observed : op.value});
    deliver(sim_, d, home(t), d == home(t) ? now(d) : now(d) + kHop,
            [this, t, op_index, observed] {
              const std::size_t slot = slot_of_[t][op_index];
              if (slot != kNoSlot) outcome_[slot] = observed;
              complete(t);
            });
  }

  /// Mark the re-homing in the page's log.
  void installed(std::size_t d, const DirRequest& req,
                 bool failover) override {
    pages_[req.item].log.push_back(
        LogEntry{kMarkerThread, 0, static_cast<std::uint8_t>(failover ? 1 : 2),
                 static_cast<std::uint64_t>(d)});
  }

  void migrated(const DirRequest& req) override { complete(req.tag >> 32); }

  SimDuration jitter(const DirRequest& req) override {
    return jitter(req.tag >> 32);
  }

 private:
  std::size_t home(std::size_t t) const { return program_.threads[t].node; }
  SimTime now(std::size_t s) { return sim_.shard(s).now(); }
  /// Jitter draws happen only on the thread's home shard (issue, retry,
  /// complete), so each stream's draw order is the thread's own event
  /// order — deterministic.
  SimDuration jitter(std::size_t t) {
    return perturb_.jitter(t, threads_[t].draws++, kMaxJitter);
  }

  /// Dispatch thread `t`'s current op from its home shard.
  void issue(std::size_t t) {
    const std::size_t s = home(t);
    const std::size_t op_index = threads_[t].cursor;
    const Op& op = program_.threads[t].ops[op_index];
    switch (op.kind) {
      case OpKind::kLoad:
      case OpKind::kStore:
      case OpKind::kAtomic:
      case OpKind::kMigrate: {
        DirRequest req;
        req.tag = t << 32 | op_index;
        req.item = op.page;
        req.from = static_cast<std::uint32_t>(s);
        req.migrate = op.kind == OpKind::kMigrate;
        req.to = op.dst_node;
        dir_.request(req);
        break;
      }
      case OpKind::kCrash:
      case OpKind::kRepair: {
        // Fire-and-forget: the health transition travels as a message and
        // genuinely races the thread's subsequent accesses.
        const bool up = op.kind == OpKind::kRepair;
        const NodeId target = op.dst_node;
        deliver(sim_, s, target, now(s) + kHop + jitter(t),
                [this, target, up] { dir_.set_alive(target, up); });
        complete(t);
        break;
      }
    }
  }

  /// Current op done: advance program order, issue the next op after the
  /// thread-local delay (+ jitter).
  void complete(std::size_t t) {
    ThreadState& th = threads_[t];
    ++th.cursor;
    if (th.cursor >= program_.threads[t].ops.size()) return;
    const std::size_t s = home(t);
    sim_.shard(s).schedule_at(now(s) + kLocalDelay + jitter(t),
                              [this, t] { issue(t); });
  }

  LitmusProgram program_;
  SchedulePerturb perturb_;
  ShardedSimulator sim_;
  ShardedDirectory dir_;
  std::vector<PageState> pages_;
  std::vector<ThreadState> threads_;
  std::vector<std::vector<std::size_t>> slot_of_;
  Outcome outcome_;
};

}  // namespace

RandomizedResult run_randomized(const LitmusProgram& program,
                                const RandomizedConfig& config) {
  RandomizedResult result;
  result.fingerprint = kFnvOffset;
  for (std::uint64_t r = 0; r < config.rounds; ++r) {
    ShardedLitmusRun(program, config, r).run(result);
  }
  return result;
}

RandomizedResult check_randomized(const LitmusProgram& program,
                                  const Oracle& oracle,
                                  const RandomizedConfig& config) {
  RandomizedResult result = run_randomized(program, config);
  check_outcomes(oracle, result.outcomes, "sharded randomized executor");
  return result;
}

}  // namespace ecoscale::litmus
