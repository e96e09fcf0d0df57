#include "litmus/sharded.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.h"
#include "common/fingerprint.h"
#include "sim/parallel.h"
#include "sim/perturb.h"

namespace ecoscale::litmus {

namespace {

constexpr std::size_t kNoSlot = ~std::size_t{0};
constexpr std::uint8_t kMarkerThread = 0xff;  // ownership-change log entry

/// One entry of a page's serialization log. Memory ops append
/// (thread, op index, kind, value stored/observed); ownership changes
/// append a marker, so the log also witnesses where the order re-homed.
struct LogEntry {
  std::uint8_t thread = 0;
  std::uint8_t op_index = 0;
  std::uint8_t kind = 0;
  std::uint64_t value = 0;
};

struct PageState {
  bool present = false;  // this shard holds the page (IS the owner)
  std::array<std::uint64_t, kVarsPerPage> vars{};
  std::vector<LogEntry> log;
};

/// Per-shard state; an action executing on shard `n` touches nodes_[n]
/// only (plus, on a thread's home shard, that thread's ThreadState and
/// outcome slots — disjoint per shard).
struct NodeState {
  bool alive = true;
  std::vector<NodeId> owner_view;  // per page, possibly stale
  std::vector<PageState> pages;
  // Protocol counters, summed after the run (per-shard so no two engine
  // threads ever write the same counter).
  std::uint64_t nacks = 0;
  std::uint64_t failovers = 0;
  std::uint64_t migrations = 0;
  std::uint64_t forwards = 0;
};

struct ThreadState {
  std::size_t cursor = 0;    // next op (program order)
  std::size_t attempts = 0;  // dead-owner nacks for the current op
  std::uint64_t draws = 0;   // jitter stream position
};

/// An access or migrate in flight: enough to route, serve and complete.
struct AccessMsg {
  std::size_t thread = 0;
  std::size_t op_index = 0;
  std::uint8_t hops = 0;
};

/// Litmus fingerprints start from the published FNV-1a offset basis, not
/// the repository-wide kFnvOffset; LITMUS_JSON pins hashes made with it.
constexpr std::uint64_t kLitmusFpSeed = 0xcbf29ce484222325ull;

class ShardedLitmusRun {
 public:
  ShardedLitmusRun(const LitmusProgram& program,
                   const RandomizedConfig& config, std::uint64_t round)
      : program_(program),
        config_(config),
        perturb_(config.seed + 0x9e3779b97f4a7c15ull * (round + 1)),
        sim_([&] {
          ShardedConfig sc;
          sc.shards = program.nodes;
          sc.lookahead = config.hop;
          sc.threads = config.sim_threads;
          return sc;
        }()) {
    program_.validate();
    ECO_CHECK_MSG(config_.hop > 0 && config_.local_delay > 0,
                  "litmus hop/local delays must be positive");
    nodes_.resize(program_.nodes);
    for (std::size_t n = 0; n < program_.nodes; ++n) {
      nodes_[n].owner_view.assign(program_.page_owner.begin(),
                                  program_.page_owner.end());
      nodes_[n].pages.resize(program_.pages);
    }
    for (std::size_t p = 0; p < program_.pages; ++p) {
      nodes_[program_.page_owner[p]].pages[p].present = true;
    }
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

  RandomizedRun run() {
    for (std::size_t t = 0; t < program_.threads.size(); ++t) {
      if (program_.threads[t].ops.empty()) continue;
      sim_.shard(home(t)).schedule_at(1 + jitter(t), [this, t] { issue(t); });
    }
    sim_.run();

    for (std::size_t t = 0; t < threads_.size(); ++t) {
      ECO_CHECK_MSG(threads_[t].cursor == program_.threads[t].ops.size(),
                    "litmus thread " << t << " did not complete");
    }

    RandomizedRun result;
    const std::size_t obs_slots = program_.observer_slots();
    std::uint64_t fp = kLitmusFpSeed;
    for (std::size_t p = 0; p < program_.pages; ++p) {
      std::size_t owner = nodes_.size();
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (!nodes_[n].pages[p].present) continue;
        ECO_CHECK_MSG(owner == nodes_.size(),
                      "page " << p << " owned by two shards");
        owner = n;
      }
      ECO_CHECK_MSG(owner < nodes_.size(), "page " << p << " lost");
      const PageState& page = nodes_[owner].pages[p];
      for (std::size_t v = 0; v < kVarsPerPage; ++v) {
        outcome_[obs_slots + p * kVarsPerPage + v] = page.vars[v];
      }
      fp = fnv_word(fp, owner);
      fp = fnv_word(fp, page.log.size());
      for (const LogEntry& e : page.log) {
        fp = fnv_word(fp, (std::uint64_t{e.thread} << 16) |
                              (std::uint64_t{e.op_index} << 8) | e.kind);
        fp = fnv_word(fp, e.value);
      }
    }
    for (const std::uint64_t v : outcome_) fp = fnv_word(fp, v);
    for (const NodeState& n : nodes_) {
      result.nacks += n.nacks;
      result.failovers += n.failovers;
      result.migrations += n.migrations;
      result.forwards += n.forwards;
    }
    fp = fnv_word(fp, result.nacks);
    fp = fnv_word(fp, result.failovers);
    fp = fnv_word(fp, result.migrations);
    fp = fnv_word(fp, result.forwards);
    result.outcome = outcome_;
    result.fingerprint = fp;
    result.events = sim_.events_processed();
    return result;
  }

 private:
  std::size_t home(std::size_t t) const { return program_.threads[t].node; }
  const Op& op_of(const AccessMsg& m) const {
    return program_.threads[m.thread].ops[m.op_index];
  }
  /// Jitter draws happen only on the thread's home shard (issue, retry,
  /// complete), so each stream's draw order is the thread's own event
  /// order — deterministic, engine-thread-count invariant.
  SimDuration jitter(std::size_t t) {
    return perturb_.jitter(t, threads_[t].draws++, config_.max_jitter);
  }

  /// Cross-shard post, or a same-shard event when source == destination
  /// (a forwarding chain legitimately routes back to the requester's own
  /// shard once a failover re-homed the page there).
  template <typename F>
  void deliver(std::size_t from, std::size_t to, SimTime at, F&& fn) {
    if (from == to) {
      sim_.shard(from).schedule_at(at, std::forward<F>(fn));
    } else {
      sim_.post(from, to, at, std::forward<F>(fn));
    }
  }

  /// Dispatch thread `t`'s current op. Runs on the home shard; re-entered
  /// after nack backoff, redirects and failover installs.
  void issue(std::size_t t) {
    const std::size_t s = home(t);
    const SimTime now = sim_.shard(s).now();
    const Op& op = program_.threads[t].ops[threads_[t].cursor];
    const AccessMsg msg{t, threads_[t].cursor, 0};
    switch (op.kind) {
      case OpKind::kLoad:
      case OpKind::kStore:
      case OpKind::kAtomic:
        if (nodes_[s].pages[op.page].present) {
          serve(s, msg);  // owner is local: serialize right here
        } else {
          deliver(s, nodes_[s].owner_view[op.page],
                  now + config_.hop + jitter(t),
                  [this, msg, d = nodes_[s].owner_view[op.page]] {
                    access_at(d, msg);
                  });
        }
        break;
      case OpKind::kMigrate:
        deliver(s, nodes_[s].owner_view[op.page],
                now + config_.hop + jitter(t),
                [this, msg, d = nodes_[s].owner_view[op.page]] {
                  migrate_at(d, msg);
                });
        break;
      case OpKind::kCrash:
      case OpKind::kRepair: {
        // Fire-and-forget: the health transition travels as a message and
        // genuinely races the thread's subsequent accesses.
        const bool up = op.kind == OpKind::kRepair;
        const NodeId target = op.dst_node;
        deliver(s, target, now + config_.hop + jitter(t),
                [this, target, up] { nodes_[target].alive = up; });
        complete(t);
        break;
      }
    }
  }

  /// A remote access arriving at shard `d` (the requester's view of the
  /// owner at issue time — possibly stale, possibly dead).
  void access_at(std::size_t d, AccessMsg msg) {
    const Op& op = op_of(msg);
    const SimTime now = sim_.shard(d).now();
    if (!nodes_[d].alive) {
      ++nodes_[d].nacks;
      deliver(d, home(msg.thread), now + config_.hop,
              [this, msg] { on_nack(msg); });
      return;
    }
    if (nodes_[d].pages[op.page].present) {
      serve(d, msg);
      return;
    }
    forward(d, msg,
            [this](std::size_t next, AccessMsg m) { access_at(next, m); });
  }

  /// Serialize the op at owner shard `d`: apply to the page, append to
  /// its log, return the observation to the requester.
  void serve(std::size_t d, const AccessMsg& msg) {
    const Op& op = op_of(msg);
    PageState& page = nodes_[d].pages[op.page];
    ECO_CHECK(page.present);
    const std::uint64_t observed = apply_memory_op(op, page.vars.data());
    page.log.push_back(LogEntry{static_cast<std::uint8_t>(msg.thread),
                                static_cast<std::uint8_t>(msg.op_index),
                                static_cast<std::uint8_t>(op.kind),
                                op.observes() ? observed : op.value});
    const std::size_t h = home(msg.thread);
    if (d == h) {
      record(msg, observed);
      complete(msg.thread);
    } else {
      const SimTime now = sim_.shard(d).now();
      deliver(d, h, now + config_.hop, [this, msg, observed] {
        record(msg, observed);
        complete(msg.thread);
      });
    }
  }

  /// Stale view at `d`: pass the message one hop toward the current
  /// owner. Views converge (every transfer broadcasts), so chains are
  /// short; the hop bound catches protocol bugs, not live routes.
  template <typename Next>
  void forward(std::size_t d, AccessMsg msg, Next&& next) {
    const Op& op = op_of(msg);
    const std::size_t to = nodes_[d].owner_view[op.page];
    ECO_CHECK_MSG(to != d, "shard forwards page "
                               << static_cast<int>(op.page) << " to itself");
    ++msg.hops;
    ECO_CHECK_MSG(msg.hops < 64, "litmus forwarding chain does not converge");
    ++nodes_[d].forwards;
    const SimTime now = sim_.shard(d).now();
    deliver(d, to, now + config_.hop,
            [next = std::forward<Next>(next), to, msg] { next(to, msg); });
  }

  /// Access bounced off a dead shard. Bounded linear-backoff retries —
  /// each re-issue re-reads the (possibly repaired or re-homed) state —
  /// then page failover to the requester's own node, mirroring
  /// PgasSystem::fail_over_dead_owner.
  void on_nack(AccessMsg msg) {
    const std::size_t s = home(msg.thread);
    const SimTime now = sim_.shard(s).now();
    ThreadState& th = threads_[msg.thread];
    ++th.attempts;
    if (th.attempts < config_.max_retries) {
      const SimDuration backoff =
          config_.retry_timeout + th.attempts * config_.retry_backoff;
      sim_.shard(s).schedule_at(now + backoff + jitter(msg.thread),
                                [this, t = msg.thread] { issue(t); });
      return;
    }
    th.attempts = 0;
    const Op& op = op_of(msg);
    const std::size_t dead = nodes_[s].owner_view[op.page];
    deliver(s, dead, now + config_.hop + jitter(msg.thread),
            [this, msg, dead] { fetch_at(dead, msg); });
  }

  /// Failover fetch at the presumed-dead owner. Its memory stays readable
  /// for recovery (as PgasSystem's backing store does), so a genuinely
  /// dead owner hands the page — variables AND serialization log — to the
  /// requester's node. A repaired or already-re-homed owner degenerates
  /// to the normal access path.
  void fetch_at(std::size_t d, AccessMsg msg) {
    const Op& op = op_of(msg);
    const SimTime now = sim_.shard(d).now();
    PageState& page = nodes_[d].pages[op.page];
    if (!page.present) {
      // Someone else already re-homed it; send the requester our view.
      deliver(d, home(msg.thread), now + config_.hop,
              [this, msg, owner = nodes_[d].owner_view[op.page]] {
                on_redirect(msg, owner);
              });
      return;
    }
    if (nodes_[d].alive) {  // repair won the race: no failover needed
      access_at(d, msg);
      return;
    }
    ++nodes_[d].failovers;
    const std::size_t target = home(msg.thread);
    auto vars = page.vars;
    auto log = std::move(page.log);
    page = PageState{};
    nodes_[d].owner_view[op.page] = static_cast<NodeId>(target);
    deliver(d, target, now + config_.hop,
            [this, msg, target, vars, log = std::move(log)]() mutable {
              install(target, msg, vars, std::move(log), /*failover=*/true);
            });
  }

  /// Updated-owner hint after a lost failover race: fix the view and
  /// re-drive the op against the new owner.
  void on_redirect(AccessMsg msg, NodeId owner) {
    const std::size_t s = home(msg.thread);
    const Op& op = op_of(msg);
    if (!nodes_[s].pages[op.page].present && owner != s) {
      nodes_[s].owner_view[op.page] = owner;
    }
    issue(msg.thread);
  }

  /// Explicit migrate request arriving at shard `d`.
  void migrate_at(std::size_t d, AccessMsg msg) {
    const Op& op = op_of(msg);
    const SimTime now = sim_.shard(d).now();
    PageState& page = nodes_[d].pages[op.page];
    if (!page.present) {
      forward(d, msg,
              [this](std::size_t next, AccessMsg m) { migrate_at(next, m); });
      return;
    }
    ECO_CHECK_MSG(nodes_[d].alive, "litmus migrate reached a dead owner");
    ++nodes_[d].migrations;
    const std::size_t dst = op.dst_node;
    if (dst == d) {  // already home: ack only
      ack_migrate(d, msg);
      return;
    }
    auto vars = page.vars;
    auto log = std::move(page.log);
    page = PageState{};
    nodes_[d].owner_view[op.page] = static_cast<NodeId>(dst);
    deliver(d, dst, now + config_.hop,
            [this, msg, dst, vars, log = std::move(log)]() mutable {
              install(dst, msg, vars, std::move(log), /*failover=*/false);
            });
  }

  /// Install a transferred page at `d`: adopt variables + log, mark the
  /// re-homing in the log, broadcast the new owner, resume the requester.
  void install(std::size_t d, const AccessMsg& msg,
               const std::array<std::uint64_t, kVarsPerPage>& vars,
               std::vector<LogEntry> log, bool failover) {
    const Op& op = op_of(msg);
    const SimTime now = sim_.shard(d).now();
    PageState& page = nodes_[d].pages[op.page];
    ECO_CHECK_MSG(!page.present, "page installed twice");
    page.present = true;
    page.vars = vars;
    page.log = std::move(log);
    page.log.push_back(LogEntry{kMarkerThread, 0,
                                static_cast<std::uint8_t>(failover ? 1 : 2),
                                static_cast<std::uint64_t>(d)});
    nodes_[d].owner_view[op.page] = static_cast<NodeId>(d);
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (n == d) continue;
      deliver(d, n, now + config_.hop,
              [this, n, d, p = op.page] {
                // Stale broadcasts must not displace a shard that holds
                // the page or point it at itself while it does not.
                if (!nodes_[n].pages[p].present &&
                    static_cast<std::size_t>(d) != n) {
                  nodes_[n].owner_view[p] = static_cast<NodeId>(d);
                }
              });
    }
    if (failover) {
      // Failover targets the requester's own node: the blocked access is
      // local now — re-drive it to completion.
      ECO_CHECK(d == home(msg.thread));
      issue(msg.thread);
    } else {
      ack_migrate(d, msg);
    }
  }

  void ack_migrate(std::size_t d, const AccessMsg& msg) {
    const std::size_t h = home(msg.thread);
    if (d == h) {
      complete(msg.thread);
      return;
    }
    const SimTime now = sim_.shard(d).now();
    deliver(d, h, now + config_.hop,
            [this, t = msg.thread] { complete(t); });
  }

  /// Record an observation into the thread's outcome slot (home shard
  /// only; slots are disjoint across shards).
  void record(const AccessMsg& msg, std::uint64_t observed) {
    const std::size_t slot = slot_of_[msg.thread][msg.op_index];
    if (slot != kNoSlot) outcome_[slot] = observed;
  }

  /// Current op done: advance program order, issue the next op after the
  /// thread-local delay (+ jitter).
  void complete(std::size_t t) {
    const std::size_t s = home(t);
    ThreadState& th = threads_[t];
    ++th.cursor;
    th.attempts = 0;
    if (th.cursor >= program_.threads[t].ops.size()) return;
    const SimTime now = sim_.shard(s).now();
    sim_.shard(s).schedule_at(now + config_.local_delay + jitter(t),
                              [this, t] { issue(t); });
  }

  LitmusProgram program_;
  RandomizedConfig config_;
  SchedulePerturb perturb_;
  ShardedSimulator sim_;
  std::vector<NodeState> nodes_;
  std::vector<ThreadState> threads_;
  std::vector<std::vector<std::size_t>> slot_of_;
  Outcome outcome_;
};

}  // namespace

RandomizedRun run_randomized_once(const LitmusProgram& program,
                                  const RandomizedConfig& config,
                                  std::uint64_t round) {
  ShardedLitmusRun run(program, config, round);
  return run.run();
}

RandomizedResult run_randomized(const LitmusProgram& program,
                                const RandomizedConfig& config) {
  RandomizedResult result;
  result.fingerprint = kLitmusFpSeed;
  for (std::uint64_t r = 0; r < config.rounds; ++r) {
    RandomizedRun run = run_randomized_once(program, config, r);
    result.outcomes.insert(run.outcome);
    result.fingerprint = fnv_word(result.fingerprint, run.fingerprint);
    result.events += run.events;
    result.nacks += run.nacks;
    result.failovers += run.failovers;
    result.migrations += run.migrations;
    result.forwards += run.forwards;
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
