#include "sim/parallel.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/reduce.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Interned name of the engine's counter track: cumulative cross-shard
/// messages, sampled after each shard run (deterministic).
[[maybe_unused]] CounterId messages_trace_name() {
  static const CounterId id = CounterRegistry::intern("sim.messages");
  return id;
}

/// Orchestrator lane: distinct tid under the simulation pid, away from the
/// per-shard lanes (shard s traces on tid s + 1; plain Simulators on 0).
constexpr std::uint16_t kEngineTid = 0xFFF0;

SimTime queue_next(const Simulator& sim) {
  return sim.idle() ? std::numeric_limits<SimTime>::max()
                    : sim.next_event_time();
}

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config)
    : config_(std::move(config)) {
  ECO_CHECK_MSG(config_.shards >= 1, "need at least one shard");
  ECO_CHECK_MSG(config_.shards <= std::size_t{1} << Simulator::kOriginBits,
                "shard ids must fit the event key's 16-bit origin field");
  ECO_CHECK_MSG(config_.lookahead >= 1,
                "conservative lookahead must be positive");
  const std::size_t nshards = config_.shards;
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Simulator& sim = shards_.back()->sim;
    sim.set_origin(static_cast<std::uint16_t>(s));
    // Lane 0 stays the classic single-engine lane; shard s gets lane s+1.
    sim.set_trace_lane(static_cast<std::uint16_t>(s + 1));
  }
  inbox_reserve_ = std::max<std::size_t>(
      1, (config_.mailbox_capacity + nshards - 1) / nshards);
  while (leaves_ < nshards) leaves_ *= 2;
  next_.assign(leaves_, kNever);
  tree_.assign(2 * leaves_, 0);
  for (std::size_t i = 0; i < leaves_; ++i) {
    tree_[leaves_ + i] = static_cast<std::uint32_t>(i);
  }
  seed_tree();
}

void ShardedSimulator::post_message(std::size_t from, std::size_t to,
                                    SimTime t, InlineAction action) {
  ECO_CHECK(from < shards_.size() && to < shards_.size());
  ECO_CHECK_MSG(from != to,
                "same-shard events use shard(s).schedule_*, not post()");
  ECO_CHECK_MSG(running_shard_ != kNoShard,
                "post() called outside a running shard action");
  ECO_CHECK_MSG(running_shard_ == from,
                "post() `from` must be the shard executing this action");
  Simulator& src = shards_[from]->sim;
  ECO_CHECK_MSG(t >= src.now() + config_.lookahead,
                "cross-shard event inside the conservative lookahead window");
  // Echo cap (parallel.h file comment): a chain this message seeds returns
  // to `from` no earlier than t + lookahead.
  src.tighten_run_bound(t + config_.lookahead);
  ++posts_;
  Shard& dst = *shards_[to];
  if (dst.inbox.capacity() == 0) dst.inbox.reserve(inbox_reserve_);
  dst.inbox.push_back(Message{t, src.next_key(), std::move(action)});
  if (t < dst.inbox_min) {
    dst.inbox_min = t;
    if (t < next_[to]) set_next(static_cast<std::uint32_t>(to), t);
  }
}

void ShardedSimulator::run_shard(std::uint32_t s, SimTime end) {
  Shard& sh = *shards_[s];
  if (sh.inbox_min < end) {
    // Admit what is due; keep the rest in arrival order.
    SimTime rest = kNever;
    std::size_t kept = 0;
    for (Message& m : sh.inbox) {
      if (m.time < end) {
        sh.sim.schedule_keyed(m.time, m.key, std::move(m.action));
      } else {
        rest = std::min(rest, m.time);
        if (&sh.inbox[kept] != &m) sh.inbox[kept] = std::move(m);
        ++kept;
      }
    }
    sh.inbox.erase(sh.inbox.begin() + static_cast<std::ptrdiff_t>(kept),
                   sh.inbox.end());
    sh.inbox_min = rest;
  }
  running_shard_ = s;
  sh.sim.run_before(end);
  running_shard_ = kNoShard;
  ++runs_;
  set_next(s, std::min(queue_next(sh.sim), sh.inbox_min));
  ECO_TRACE_COUNTER(obs::Cat::kSim, messages_trace_name(),
                    (obs::Lane{obs::kSimPid, kEngineTid}), sh.sim.now(),
                    posts_);
}

void ShardedSimulator::seed_tree() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    next_[s] = std::min(queue_next(shards_[s]->sim), shards_[s]->inbox_min);
  }
  for (std::size_t k = leaves_; k-- > 1;) {
    tree_[k] = earlier(tree_[2 * k], tree_[2 * k + 1]);
  }
}

void ShardedSimulator::set_next(std::uint32_t s, SimTime t) {
  next_[s] = t;
  for (std::size_t k = (leaves_ + s) / 2; k >= 1; k /= 2) {
    tree_[k] = earlier(tree_[2 * k], tree_[2 * k + 1]);
  }
}

SimTime ShardedSimulator::runner_up() const {
  // The runner-up lost to the winner in one of the matches on the
  // winner's path: the best of the sibling subtrees along it.
  SimTime best = kNever;
  for (std::size_t k = leaves_ + tree_[1]; k > 1; k /= 2) {
    best = std::min(best, next_[tree_[k ^ 1]]);
  }
  return best;
}

void ShardedSimulator::run() { run_until(kNever); }

bool ShardedSimulator::run_until(SimTime bound) {
  // Between calls the controller may have scheduled on any shard.
  seed_tree();
  if (next_[tree_[1]] < bound) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      do {
        const SimTime r = runner_up();
        run_shard(tree_[1], std::min(r >= kNever - config_.lookahead
                                         ? kNever
                                         : r + config_.lookahead,
                                     bound));
      } while (next_[tree_[1]] < bound);
    } catch (...) {
      running_shard_ = kNoShard;
      loop_ns_ += elapsed_ns(t0);
      throw;
    }
    loop_ns_ += elapsed_ns(t0);
  }
  return next_[tree_[1]] == kNever;
}

std::size_t ShardedSimulator::mailbox_state_bytes() const {
  std::size_t slots = 0;
  for (const auto& s : shards_) slots += s->inbox.capacity();
  return slots * sizeof(Message);
}

std::uint64_t ShardedSimulator::events_processed() const {
  return reduce_tree<std::uint64_t>(
      shards_.size(), 0,
      [&](std::size_t s) { return shards_[s]->sim.events_processed(); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

SimTime ShardedSimulator::now() const {
  return reduce_tree<SimTime>(
      shards_.size(), 0,
      [&](std::size_t s) { return shards_[s]->sim.now(); },
      [](SimTime a, SimTime b) { return std::max(a, b); });
}

}  // namespace ecoscale
