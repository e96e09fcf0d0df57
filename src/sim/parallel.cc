#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/reduce.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {

/// Pause polls before yielding: 16 x ~22 ns is about what one yield costs,
/// so a gate that opens this soon is seen at once; longer spins slowed the
/// threads still working in wide rounds (DESIGN.md §7.8).
constexpr int kGateSpinPolls = 16;
/// Yield phase, timed rather than counted because a yield costs ~0.3 us on
/// an idle core but a whole timeslice when threads outnumber cores: long
/// enough to cover a slow round, short enough that a descheduled last
/// arriver is not starved for long by yielding peers.
constexpr std::chrono::microseconds kGateYieldBudget{100};

/// Events per round, as an EWMA with alpha = 1/8, at which a round runs
/// wide; below it the leader runs the round alone. Measured events per
/// round (ecobench, seed 1): kv_open median 3, max 22; kv_phase median 8,
/// max 58 — both stay narrow, never switching — while engine_mesh's
/// median is 212, so 83% of its rounds run wide with 2 switches a rep.
/// Switching rarely matters as much as the split: a wide round after the
/// workers have parked costs ~100 us more on a 4-vCPU host (DESIGN.md
/// §7.8).
constexpr std::uint64_t kWideRoundEvents = 64;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

/// Generation-counter round gate. Arrivals bump `arrived_`; the last
/// arriver resets it and publishes the next generation with release, and
/// the others poll the generation with acquire — pause, then yield, then
/// park on atomic::wait (parallel.h file comment). The acq_rel arrivals
/// form one release sequence, so every thread's writes before its arrival
/// happen-before every thread's reads after the gate opens.
class RoundGate {
 public:
  explicit RoundGate(std::uint32_t n) : n_(n) {}

  void sync() {
    // This thread has not arrived yet, so the generation cannot move
    // before its own arrival: `gen` is the one this crossing ends.
    const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    for (int i = 0; i < kGateSpinPolls; ++i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    const auto deadline = std::chrono::steady_clock::now() + kGateYieldBudget;
    do {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < deadline);
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  const std::uint32_t n_;
};

namespace {

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

/// Which shard (of which engine) the current thread is executing a window
/// for, and which lane it owns; post() validates its `from` argument
/// against this and routes through the lane.
struct RunContext {
  const void* engine = nullptr;
  std::size_t shard = 0;
  ShardLane* lane = nullptr;
};
thread_local RunContext tls_run_context;

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
  std::size_t threads = config_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 1;
  }
  threads_ = std::min(threads, config_.shards);
  const std::size_t nshards = config_.shards;
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    // Lane 0 stays the classic single-engine lane; shard s gets lane s+1.
    shards_.back()->sim.set_trace_lane(static_cast<std::uint16_t>(s + 1));
  }
  lanes_.reserve(threads_);
  slots_.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    lanes_.push_back(std::make_unique<ShardLane>(config_.mailbox_capacity));
    slots_.push_back(std::make_unique<WorkerSlot>());
  }
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

ShardedSimulator::~ShardedSimulator() {
  if (workers_.empty()) return;
  // Workers wait at the plan gate whenever the leader is outside a wide
  // round; crossing it with the stop flag set lets them return.
  stopping_ = true;
  gate_->sync();
  for (auto& w : workers_) w.join();
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
  ECO_CHECK_MSG(tls_run_context.engine == this,
                "post() called outside a running shard action");
  ECO_CHECK_MSG(tls_run_context.shard == from,
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
  tls_run_context.lane->push(t, static_cast<std::uint32_t>(from),
                             static_cast<std::uint32_t>(to), std::move(action));
}

void ShardedSimulator::run_shard_window(std::size_t s, SimTime end,
                                        std::size_t lane) {
  const RunContext saved = tls_run_context;
  tls_run_context = RunContext{this, s, lanes_[lane].get()};
  try {
    shards_[s]->sim.run_before(end);
  } catch (...) {
    shards_[s]->error = std::current_exception();
    ++slots_[lane]->errors;
  }
  tls_run_context = saved;
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
  const std::size_t nshards = shards_.size();
  const std::size_t nthreads = threads_;
  // Pre-reserve the fold buffers so the steady state allocates nothing
  // (sim_alloc_test gates this at 1 and 4 threads); the merge reads the
  // lanes in place and needs no scratch.
  for (std::size_t t = 0; t < nthreads; ++t) {
    const std::size_t lo = t * nshards / nthreads;
    const std::size_t hi = (t + 1) * nshards / nthreads;
    slots_[t]->pending.reserve(hi - lo);
  }
  // Between segments the controller may have scheduled on any shard, so
  // the seed reads every queue; rounds then refresh only what they touch.
  for (std::size_t d = 0; d < nshards; ++d) {
    const Simulator& sim = shards_[d]->sim;
    next_times_[d] = sim.idle() ? kNever : sim.next_event_time();
  }
  for (std::size_t t = 0; t < nthreads; ++t) fold_range(t);
}

void ShardedSimulator::fold_range(std::size_t tid) {
  WorkerSlot& me = *slots_[tid];
  const std::size_t nshards = shards_.size();
  const std::size_t lo = tid * nshards / threads_;
  const std::size_t hi = (tid + 1) * nshards / threads_;
  me.pending.clear();
  me.part_floor = kNever;
  me.part_src1 = kNever;
  me.part_src2 = kNever;
  me.part_src_arg = 0;
  // Only the collapsed horizon reads the top-2; dense horizons skip it
  // (kv_open folds 8 shards every ~1 us round).
  const bool top2 = pair_matrix_.empty();
  for (std::size_t d = lo; d < hi; ++d) {
    const SimTime next = next_times_[d];
    if (next == kNever) continue;
    me.pending.push_back(static_cast<std::uint32_t>(d));
    me.part_floor = std::min(me.part_floor, next);
    if (top2) {
      fold_top2(next + source_floor_[d], static_cast<std::uint32_t>(d),
                me.part_src1, me.part_src2, me.part_src_arg);
    }
  }
}

ShardedSimulator::Round ShardedSimulator::plan_round() {
  // A window that threw bumped its thread's tally; only then is a scan of
  // the shards worth it. Each slot's tally has one writer, ordered before
  // this read by the round's last gate.
  for (auto& slot_ptr : slots_) {
    pending_errors_ += slot_ptr->errors;
    slot_ptr->errors = 0;
  }
  if (pending_errors_ > 0) rethrow_shard_error();
  // Fold the per-thread partials: O(threads) here instead of the old
  // O(shards) worker-0 rescan — the second level of the next-event fold.
  SimTime floor = kNever;
  SimTime src1 = kNever, src2 = kNever;
  std::uint32_t src_arg = 0;
  std::uint64_t round_events = 0;
  for (auto& slot_ptr : slots_) {
    WorkerSlot& slot = *slot_ptr;
    floor = std::min(floor, slot.part_floor);
    fold_top2(slot.part_src1, slot.part_src_arg, src1, src2, src_arg);
    src2 = std::min(src2, slot.part_src2);
    round_events += slot.events;
    slot.events = 0;
    shard_windows_ += slot.executed;
    stalled_windows_ += slot.stalled;
    slot.executed = 0;
    slot.stalled = 0;
  }
  if (trace_prev_valid_) {
    // Fixed-point EWMA update, alpha = 1/8: x8' = x8 - x8/8 + events.
    events_ewma_x8_ += round_events - events_ewma_x8_ / 8;
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
  if (floor == kNever || floor >= run_bound_) {
    // Drained, or every remaining event sits at or past the run_until()
    // bound — this segment is over (the pending work is the next one's).
    return Round::kDone;
  }
  plan_src1_ = src1;
  plan_src2_ = src2;
  plan_src_arg_ = src_arg;
  // Publish the round: the pending shards in ascending order, each
  // thread's owned range a contiguous slice of it, and their horizons.
  pending_.clear();
  pending_next_.clear();
  for (auto& slot_ptr : slots_) {
    WorkerSlot& slot = *slot_ptr;
    slot.claim_begin = static_cast<std::uint32_t>(pending_.size());
    for (const std::uint32_t d : slot.pending) {
      pending_.push_back(d);
      pending_next_.push_back(next_times_[d]);
    }
    slot.claim_end = static_cast<std::uint32_t>(pending_.size());
  }
  plan_horizons();
  trace_prev_valid_ = true;
  trace_prev_floor_ = floor;
  ++windows_;
  if (threads_ > 1 && events_ewma_x8_ >= 8 * kWideRoundEvents) {
    ++wide_rounds_;
    return Round::kWide;
  }
  return Round::kNarrow;
}

void ShardedSimulator::run_window(std::size_t i, std::size_t tid) {
  WorkerSlot& me = *slots_[tid];
  const std::uint32_t d = pending_[i];
  const SimTime horizon = horizon_[d];
  if (horizon > pending_next_[i]) {
    ++me.executed;
    const Simulator& sim = shards_[d]->sim;
    const std::uint64_t before = sim.events_processed();
    run_shard_window(d, horizon, tid);
    me.events += sim.events_processed() - before;
    // next_times_[d] belongs to d's owner, which also reads it in the
    // merge phase, after the execute gate.
    next_times_[d] = sim.idle() ? kNever : sim.next_event_time();
  } else {
    // Pending work the horizon forbade: a barrier stall. Deterministic
    // (horizons derive from published simulation state only).
    ++me.stalled;
  }
}

void ShardedSimulator::insert_messages(std::size_t lo, std::size_t hi,
                                       std::size_t nlanes) {
  // Insert the messages bound for [lo, hi) from lanes [0, nlanes) in lane
  // order, which is ascending (source shard, send index): each thread runs
  // its pending shards in ascending order into its own lane, and thread
  // t's shards all lie above thread t-1's. A destination queue orders
  // events by (time, seq) and the inserts take consecutive seqs, so
  // same-time messages run in (source, send index) order and the rest in
  // time order — exactly what sorting the round first would give, at any
  // thread count (parallel.h, "Determinism"). In a wide round other
  // threads walk the same lanes concurrently, but move out only their own
  // destinations' actions; this thread reads the key fields alone for
  // every other message.
  std::uint32_t prev_src = 0;
  for (std::size_t t = 0; t < nlanes; ++t) {
    lanes_[t]->for_each([&](ShardMessage& m) {
      ECO_CHECK_MSG(m.src >= prev_src,
                    "lane order is not ascending by source shard");
      prev_src = m.src;
      if (m.dst < lo || m.dst >= hi) return;
      shards_[m.dst]->sim.schedule_at(m.time, std::move(m.action));
      // A delivery can only pull the destination's next event earlier.
      // Store only when it does: in a wide round the range owners'
      // entries share next_times_' cache lines.
      if (m.time < next_times_[m.dst]) next_times_[m.dst] = m.time;
    });
  }
}

// Round schedule. Narrow: the leader plans, then runs every window and
// merges every message itself — no gate. Wide, three gates whatever the
// thread count:
//   plan (leader) | gate | execute | gate | insert + fold | gate |
//   next plan ...
// Workers sit at the plan gate between wide rounds, so a round the leader
// runs narrow — or a pause between run_until() segments — leaves them
// parked.

void ShardedSimulator::run_narrow_round() {
  // The last round's merge is over. Every runnable window back to back,
  // with one clock pair for the lot.
  lanes_[0]->clear();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    run_window(i, 0);
  }
  slots_[0]->window_ns += elapsed_ns(t0);
  // Only lane 0 carried messages, so one pass over every destination
  // replaces the per-range merges.
  insert_messages(0, shards_.size(), 1);
  for (std::size_t t = 0; t < threads_; ++t) fold_range(t);
}

void ShardedSimulator::execute_wide(std::size_t tid) {
  // The thread's own pending shards, in ascending order: the slice of
  // pending_ its range contributed at the plan. Every thread's reads of
  // the lane ended at the last wide round's fold gate, so it can clear.
  WorkerSlot& me = *slots_[tid];
  lanes_[tid]->clear();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = me.claim_begin; i < me.claim_end; ++i) {
    run_window(i, tid);
  }
  me.window_ns += elapsed_ns(t0);
}

void ShardedSimulator::merge_wide(std::size_t tid) {
  const std::size_t nshards = shards_.size();
  insert_messages(tid * nshards / threads_, (tid + 1) * nshards / threads_,
                  threads_);
  fold_range(tid);
}

void ShardedSimulator::run_wide_round() {
  if (workers_.empty()) {
    gate_ = std::make_unique<RoundGate>(static_cast<std::uint32_t>(threads_));
    workers_.reserve(threads_ - 1);
    for (std::size_t t = 1; t < threads_; ++t) {
      workers_.emplace_back([this, t] { worker_loop(t); });
    }
  }
  gate_->sync();  // plan published
  execute_wide(0);
  gate_->sync();  // every window finished, every lane complete
  merge_wide(0);
  gate_->sync();  // partials published for the next plan
}

void ShardedSimulator::worker_loop(std::size_t tid) noexcept {
  for (;;) {
    gate_->sync();  // a wide round's plan, or the destructor's stop
    if (stopping_) return;
    execute_wide(tid);
    gate_->sync();
    merge_wide(tid);
    gate_->sync();
  }
}

void ShardedSimulator::run() { run_until(kNever); }

bool ShardedSimulator::run_until(SimTime bound) {
  run_bound_ = bound;
  prepare_run();
  try {
    // plan_round() rethrows a shard's exception at the next round
    // boundary; by then every worker is back at the plan gate.
    for (;;) {
      const Round round = plan_round();
      if (round == Round::kDone) break;
      if (round == Round::kWide) {
        run_wide_round();
      } else {
        run_narrow_round();
      }
    }
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

std::uint64_t ShardedSimulator::mailbox_spills() const {
  std::uint64_t total = 0;
  for (const auto& l : lanes_) total += l->overflow_spills();
  return total;
}

std::size_t ShardedSimulator::mailbox_state_bytes() const {
  std::size_t total = 0;
  for (const auto& l : lanes_) total += l->state_bytes();
  return total;
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

std::uint64_t ShardedSimulator::shard_wall_time_ns() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->window_ns;
  return total;
}

}  // namespace ecoscale
