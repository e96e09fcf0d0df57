#include "sim/parallel.h"

#include <algorithm>
#include <chrono>

#include "common/reduce.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Interned names for the engine's own trace lane: a span per
/// synchronization round plus cumulative counter tracks for merged
/// messages and horizon stalls (both deterministic).
struct ParTraceNames {
  CounterId window = CounterRegistry::intern("sim.window");
  CounterId messages = CounterRegistry::intern("sim.messages");
  CounterId stall = CounterRegistry::intern("sim.stall");
};
[[maybe_unused]] const ParTraceNames& par_trace_names() {
  static const ParTraceNames names;
  return names;
}

/// Orchestrator lane: distinct tid under the simulation pid, away from the
/// per-shard lanes (shard s traces on tid s + 1; plain Simulators on 0).
constexpr std::uint16_t kEngineTid = 0xFFF0;

/// Fold one (value, shard) candidate into a top-2-with-argmin accumulator.
inline void fold_top2(SimTime cand, std::uint32_t arg, SimTime& best1,
                      SimTime& best2, std::uint32_t& best_arg) {
  if (cand < best1) {
    best2 = best1;
    best1 = cand;
    best_arg = arg;
  } else if (cand < best2) {
    best2 = cand;
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config)
    : config_(std::move(config)) {
  ECO_CHECK_MSG(config_.shards >= 1, "need at least one shard");
  ECO_CHECK_MSG(config_.lookahead >= 1,
                "conservative lookahead must be positive");
  const std::size_t nshards = config_.shards;
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Lane 0 stays the classic single-engine lane; shard s gets lane s+1.
    shards_.back()->sim.set_trace_lane(static_cast<std::uint16_t>(s + 1));
  }
  outbox_.reserve(config_.mailbox_capacity);
  next_times_.assign(nshards, kNever);
  horizon_.assign(nshards, kNever);
  pending_.reserve(nshards);
  pending_next_.reserve(nshards);

  // Per-pair latency state. With an oracle and a modest shard count,
  // materialize the dense matrix (exact per-destination column minima);
  // above the cap keep only per-source floors so construction and memory
  // stay O(shards) at 6k+ shards.
  source_floor_.assign(nshards, config_.lookahead);
  dest_floor_.assign(nshards, config_.lookahead);
  if (config_.pair_lookahead && nshards > 1) {
    if (nshards <= config_.dense_pair_cap) {
      // Destination-major, so one destination's column minimum over its
      // pending sources reads one row.
      pair_matrix_.assign(nshards * nshards, 0);
      const auto pair = [&](std::size_t from, std::size_t to) -> SimDuration& {
        return pair_matrix_[to * nshards + from];
      };
      for (std::size_t s = 0; s < nshards; ++s) {
        SimDuration floor = kNever;
        for (std::size_t d = 0; d < nshards; ++d) {
          if (s == d) continue;
          const SimDuration l = config_.pair_lookahead(s, d);
          ECO_CHECK_MSG(l >= 1,
                        "zero-latency cross-shard pair cannot be sharded "
                        "conservatively");
          pair(s, d) = l;
          floor = std::min(floor, static_cast<SimTime>(l));
        }
        source_floor_[s] = floor;
      }
      // Exact per-destination column minima: the echo-cap distance.
      for (std::size_t d = 0; d < nshards; ++d) {
        SimDuration floor = kNever;
        for (std::size_t b = 0; b < nshards; ++b) {
          if (b == d) continue;
          floor = std::min(floor, pair(b, d));
        }
        dest_floor_[d] = floor;
      }
      // The adaptive bound is transitively safe only for metric oracles
      // (see parallel.h); spot-check triples so a non-metric oracle fails
      // loudly at construction, not silently in a window. Strided triples
      // alone leave off-stride pockets unchecked, so a seeded random
      // sweep (deterministic: same oracle, same verdict) covers the rest.
      const auto check_triple = [&](std::size_t a, std::size_t b,
                                    std::size_t c) {
        if (a == b || b == c || a == c) return;
        ECO_CHECK_MSG(pair(a, c) <= pair(a, b) + pair(b, c),
                      "pair_lookahead violates the triangle inequality "
                      "(adaptive windows need a route-metric oracle)");
      };
      const std::size_t step = std::max<std::size_t>(1, nshards / 24);
      for (std::size_t a = 0; a < nshards; a += step) {
        for (std::size_t b = 0; b < nshards; b += step) {
          for (std::size_t c = 0; c < nshards; c += step) {
            check_triple(a, b, c);
          }
        }
      }
      Rng triples(0x7121A27u);
      for (int i = 0; i < 1024; ++i) {
        check_triple(triples.uniform_u64(nshards),
                     triples.uniform_u64(nshards),
                     triples.uniform_u64(nshards));
      }
    } else {
      if (config_.source_floor) {
        for (std::size_t s = 0; s < nshards; ++s) {
          const SimDuration f = config_.source_floor(s);
          ECO_CHECK_MSG(f >= 1, "source_floor must be a positive latency");
          source_floor_[s] = f;
        }
      }
      // else: the uniform lookahead floors already in place — a correct
      // lower bound on every pair by the lookahead contract.
      //
      // Either way the floors feed horizons directly, so sample-verify
      // them against the pair oracle: a floor above some actual pair
      // latency would silently over-advance shards.
      const auto check_floor = [&](std::size_t s, std::size_t d) {
        if (s == d) return;
        const SimDuration l = config_.pair_lookahead(s, d);
        ECO_CHECK_MSG(l >= 1,
                      "zero-latency cross-shard pair cannot be sharded "
                      "conservatively");
        ECO_CHECK_MSG(source_floor_[s] <= l,
                      "source_floor exceeds an actual pair latency "
                      "(horizons derived from it would not be "
                      "conservative)");
      };
      Rng pairs(0xF100D5u);
      const std::size_t step = std::max<std::size_t>(1, nshards / 64);
      for (std::size_t s = 0; s < nshards; s += step) {
        for (int k = 0; k < 8; ++k) check_floor(s, pairs.uniform_u64(nshards));
      }
      for (int i = 0; i < 512; ++i) {
        check_floor(pairs.uniform_u64(nshards), pairs.uniform_u64(nshards));
      }
      // Collapsed echo-cap distance: L(b, d) >= source_floor_[b] for every
      // b, so min over b != d of the source floors bounds dest_floor(d)
      // from below (top-2 so d never reads its own floor).
      SimDuration f1 = kNever;
      SimDuration f2 = kNever;
      std::size_t f_arg = 0;
      for (std::size_t s = 0; s < nshards; ++s) {
        if (source_floor_[s] < f1) {
          f2 = f1;
          f1 = source_floor_[s];
          f_arg = s;
        } else if (source_floor_[s] < f2) {
          f2 = source_floor_[s];
        }
      }
      for (std::size_t d = 0; d < nshards; ++d) {
        dest_floor_[d] = d == f_arg ? f2 : f1;
      }
    }
  }
}

SimDuration ShardedSimulator::pair_lookahead(std::size_t from,
                                             std::size_t to) const {
  ECO_CHECK(from < shards_.size() && to < shards_.size() && from != to);
  if (!pair_matrix_.empty()) return pair_matrix_[to * shards_.size() + from];
  if (config_.pair_lookahead) return config_.pair_lookahead(from, to);
  return config_.lookahead;
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
  ECO_CHECK_MSG(t >= shards_[from]->sim.now() + pair_lookahead(from, to),
                "cross-shard event inside the conservative lookahead window");
  Shard& src = *shards_[from];
  // Self-chain echo cap (parallel.h file comment): any causal chain seeded
  // by this message returns to `from` no earlier than t + dest_floor(from)
  // — the return chain's last leg alone costs at least the cheapest
  // latency into `from` — so the posting shard's window must stop before
  // that time.
  src.sim.tighten_run_bound(t + dest_floor_[from]);
  ++src.post_seq;
  if (outbox_.size() >= config_.mailbox_capacity) ++outbox_spills_;
  Message& m = outbox_.emplace_back();
  m.time = t;
  m.src = static_cast<std::uint32_t>(from);
  m.dst = static_cast<std::uint32_t>(to);
  m.action = std::move(action);
}

void ShardedSimulator::run_shard_window(std::size_t s, SimTime end) {
  running_shard_ = s;
  try {
    shards_[s]->sim.run_before(end);
  } catch (...) {
    shards_[s]->error = std::current_exception();
    ++pending_errors_;
  }
  running_shard_ = kNoShard;
}

void ShardedSimulator::rethrow_shard_error() {
  for (auto& s : shards_) {
    if (s->error) {
      std::exception_ptr e = s->error;
      s->error = nullptr;
      --pending_errors_;
      std::rethrow_exception(e);
    }
  }
}

void ShardedSimulator::plan_horizons() {
  // One horizon per pending shard, clamped to the run_until() bound:
  // events at or after it belong to the next segment. The clamp keeps the
  // horizon a pure function of published state, so determinism is
  // unaffected.
  //
  // Both paths bound d by its *peers'* pending work only: at the round
  // start no chain originating on d has been seeded yet, and the moment
  // one is (d posts during its window) the echo cap in post_message()
  // tightens the running window — see parallel.h.
  SimTime min_horizon = kNever;
  const std::size_t np = pending_.size();
  if (!pair_matrix_.empty()) {
    // Exact column minimum over the dense pair matrix: the earliest any
    // pending peer's work could reach d. Idle shards seed nothing, so the
    // batch reads only the pending sources — O(pending^2), not O(shards)
    // per shard — and skips d itself by splitting the source range at d's
    // own position instead of testing every source.
    const std::size_t n = shards_.size();
    for (std::size_t i = 0; i < np; ++i) {
      const std::uint32_t d = pending_[i];
      const SimDuration* col = &pair_matrix_[d * n];
      SimTime best = kNever;
      for (std::size_t j = 0; j < i; ++j) {
        best = std::min(best, pending_next_[j] + col[pending_[j]]);
      }
      for (std::size_t j = i + 1; j < np; ++j) {
        best = std::min(best, pending_next_[j] + col[pending_[j]]);
      }
      horizon_[d] = std::min(best, run_bound_);
      min_horizon = std::min(min_horizon, horizon_[d]);
    }
  } else {
    // Collapsed horizon from the top-2 of next_s + source_floor_s: min over
    // s != d in O(1). source_floor <= L(s, d) for every d, so this is a
    // (possibly looser, never unsafe) bound.
    for (const std::uint32_t d : pending_) {
      horizon_[d] = std::min(plan_src_arg_ == d ? plan_src2_ : plan_src1_,
                             run_bound_);
      min_horizon = std::min(min_horizon, horizon_[d]);
    }
  }
  plan_min_horizon_ = min_horizon;
}

void ShardedSimulator::prepare_run() {
  trace_prev_valid_ = false;
  // Between segments the controller may have scheduled on any shard, so
  // the seed reads every queue; rounds then refresh only what they touch.
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    const Simulator& sim = shards_[d]->sim;
    next_times_[d] = sim.idle() ? kNever : sim.next_event_time();
  }
  fold();
}

void ShardedSimulator::fold() {
  pending_.clear();
  pending_next_.clear();
  plan_floor_ = kNever;
  plan_src1_ = kNever;
  plan_src2_ = kNever;
  plan_src_arg_ = 0;
  // Only the collapsed horizon reads the top-2; dense horizons skip it
  // (kv_open folds 8 shards every ~1 us round).
  const bool top2 = pair_matrix_.empty();
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    const SimTime next = next_times_[d];
    if (next == kNever) continue;
    pending_.push_back(static_cast<std::uint32_t>(d));
    pending_next_.push_back(next);
    plan_floor_ = std::min(plan_floor_, next);
    if (top2) {
      fold_top2(next + source_floor_[d], static_cast<std::uint32_t>(d),
                plan_src1_, plan_src2_, plan_src_arg_);
    }
  }
}

bool ShardedSimulator::plan_round() {
  if (pending_errors_ > 0) rethrow_shard_error();
  if (trace_prev_valid_) {
    // The span for the round that just completed: [its floor, the tightest
    // horizon any shard ran to). Counters are cumulative tracks.
    const SimTime span_end = plan_min_horizon_ == kNever
                                 ? trace_prev_floor_ + 1
                                 : plan_min_horizon_;
    ECO_TRACE_SPAN(obs::Cat::kSim, par_trace_names().window,
                   (obs::Lane{obs::kSimPid, kEngineTid}), trace_prev_floor_,
                   span_end, windows_ - 1);
    ECO_TRACE_COUNTER(obs::Cat::kSim, par_trace_names().messages,
                      (obs::Lane{obs::kSimPid, kEngineTid}),
                      trace_prev_floor_, messages());
    ECO_TRACE_COUNTER(obs::Cat::kSim, par_trace_names().stall,
                      (obs::Lane{obs::kSimPid, kEngineTid}),
                      trace_prev_floor_, stalled_windows_);
  }
  if (plan_floor_ == kNever || plan_floor_ >= run_bound_) {
    // Drained, or every remaining event sits at or past the run_until()
    // bound — this segment is over (the pending work is the next one's).
    return false;
  }
  plan_horizons();
  trace_prev_valid_ = true;
  trace_prev_floor_ = plan_floor_;
  ++windows_;
  return true;
}

void ShardedSimulator::run_window(std::size_t i) {
  const std::uint32_t d = pending_[i];
  const SimTime horizon = horizon_[d];
  if (horizon > pending_next_[i]) {
    ++shard_windows_;
    const Simulator& sim = shards_[d]->sim;
    run_shard_window(d, horizon);
    next_times_[d] = sim.idle() ? kNever : sim.next_event_time();
  } else {
    // Pending work the horizon forbade: a barrier stall. Deterministic
    // (horizons derive from published simulation state only).
    ++stalled_windows_;
  }
}

void ShardedSimulator::insert_messages() {
  // The outbox holds ascending (source shard, send index): the round ran
  // its pending shards in ascending order. A destination queue orders
  // events by (time, seq) and the inserts take consecutive seqs, so
  // same-time messages run in (source, send index) order and the rest in
  // time order — exactly what sorting the round first would give
  // (parallel.h, "Determinism").
  std::uint32_t prev_src = 0;
  for (Message& m : outbox_) {
    ECO_CHECK_MSG(m.src >= prev_src,
                  "outbox push order is not ascending by source shard");
    prev_src = m.src;
    shards_[m.dst]->sim.schedule_at(m.time, std::move(m.action));
    // A delivery can only pull the destination's next event earlier.
    next_times_[m.dst] = std::min(next_times_[m.dst], m.time);
  }
  outbox_.clear();
}

void ShardedSimulator::run_round() {
  // Every runnable window back to back, with one clock pair for the lot.
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < pending_.size(); ++i) run_window(i);
  window_ns_ += elapsed_ns(t0);
  insert_messages();
  fold();
}

void ShardedSimulator::run() { run_until(kNever); }

bool ShardedSimulator::run_until(SimTime bound) {
  run_bound_ = bound;
  prepare_run();
  try {
    // plan_round() rethrows a shard's exception at the next round
    // boundary.
    while (plan_round()) run_round();
  } catch (...) {
    run_bound_ = kNever;
    throw;
  }
  run_bound_ = kNever;
  for (const auto& s : shards_) {
    if (!s->sim.idle()) return false;
  }
  return true;
}

std::uint64_t ShardedSimulator::messages() const {
  return reduce_tree<std::uint64_t>(
      shards_.size(), 0,
      [&](std::size_t s) { return shards_[s]->post_seq; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
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
