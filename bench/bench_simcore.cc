// EXP-SIMCORE — simulation-kernel microbenchmark.
//
// Every ECOSCALE experiment is bounded by how many simulated events per
// wall-clock second the discrete-event core retires, so this harness tracks
// the kernel's own perf trajectory: schedule/step throughput of the event
// queue (InlineAction slab + 4-ary heap + sorted-run backlog drain) and
// reserve() throughput of the two reservation resources, including the
// oversubscribed long-run pattern that used to send CalendarTimeline
// quadratic before interval coalescing + watermark pruning, and the graph
// engine's sweep-restart pattern, where most reservations land before the
// calendar's last interval.
//
// Two schedule/step workloads:
//  - ring: 64 self-rescheduling actors with 40-byte captures, one event in
//    flight each — steady-state pop/push with a shallow heap. The 40-byte
//    capture matters: it exceeds std::function's 16-byte SBO, so the
//    pre-InlineAction kernel paid one malloc/free per event here.
//  - backlog: schedule a deep batch (random times), then drain it — the
//    pattern that triggers the sorted-run conversion.
//
// Emits the usual tables plus, always, one machine-readable JSON summary
// line (`SIMCORE_JSON {...}`) so CI and scripts can scrape the trajectory
// without parsing tables; `--json <path>` additionally dumps the tables.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "sim/inline_action.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sim/timeline.h"

namespace ecoscale {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ScheduleStepResult {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pool_spills = 0;  // heap trips taken by the spill pool
};

/// 40 bytes of captured state per event (with the actor pointer), matching
/// the message-descriptor captures the subsystem models schedule.
struct Payload {
  std::uint64_t w[4];
};

/// Self-rescheduling actor ring: steady-state schedule/step with one event
/// in flight per actor.
ScheduleStepResult ring_throughput(std::uint64_t total_events) {
  const auto before = detail::ActionBlockPool::stats();
  Simulator sim;
  sim.reserve_events(128);
  std::uint64_t budget = total_events;
  struct Actor {
    Simulator* sim;
    std::uint64_t* budget;
    SimDuration period;
    void fire() {
      if (*budget == 0) return;
      --*budget;
      Actor* self = this;
      Payload p{};
      p.w[0] = *budget;
      sim->schedule_after(period, [self, p] {
        (void)p;
        self->fire();
      });
    }
  };
  std::vector<Actor> actors;
  actors.reserve(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    actors.push_back(Actor{&sim, &budget, 10 + i});
  }
  for (auto& a : actors) a.fire();
  sim.run();
  const auto after = detail::ActionBlockPool::stats();
  ScheduleStepResult r;
  r.events = sim.events_processed();
  r.events_per_sec = sim.events_per_second();
  r.pool_spills = after.pool_misses - before.pool_misses;
  return r;
}

/// Deep-backlog drain: schedule `total_events` at random times, then run.
ScheduleStepResult backlog_throughput(std::uint64_t total_events) {
  const auto before = detail::ActionBlockPool::stats();
  Simulator sim;
  sim.reserve_events(total_events);
  Rng rng(42);
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_events; ++i) {
    Payload p{};
    p.w[0] = i;
    sim.schedule_at(rng.uniform_u64(std::uint64_t{1} << 30),
                    [p, &sink] { sink += p.w[0]; });
  }
  sim.run();
  const double wall = seconds_since(t0);
  const auto after = detail::ActionBlockPool::stats();
  ScheduleStepResult r;
  r.events = sim.events_processed();
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.pool_spills = after.pool_misses - before.pool_misses;
  return r;
}

// --- sharded parallel engine --------------------------------------------

/// Per-shard FNV-1a accumulator (same recipe as the determinism tests).
/// Each shard's actions only ever touch their own shard's slot, and posted
/// actions run on the destination shard, so the array needs no locks.
struct ShardHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

struct ShardedMeshResult {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t hash = 0;     // combined per-shard hashes + engine counters
  std::size_t threads = 0;    // threads the window loop actually used
  double wall_s = 0.0;
  std::uint64_t shard_windows = 0;  // per-shard executions across rounds
  std::uint64_t stalled = 0;        // skipped shard-windows (barrier stall)
  std::uint64_t wide_rounds = 0;    // rounds run wide (0 at one thread)
  // Host ns per round outside shard windows: plan, merge and fold (plus
  // gates when wide). Window time is summed over threads, so this is only
  // a per-round cost at one thread.
  double host_ns_per_round = 0.0;
};

/// Cross-posting actor mesh on the ShardedSimulator: per-shard
/// self-rescheduling actors where one fire in four also posts an event to
/// another shard at now + lookahead + jitter. Exercises window turnover,
/// the lane-order mailbox merge and the post() latency contract — the
/// engine-level analogue of the multi-node runtime workloads.
ShardedMeshResult sharded_mesh(std::size_t shards, std::size_t threads,
                               std::size_t actors_per_shard,
                               std::uint64_t fires_per_actor) {
  ShardedConfig sc;
  sc.shards = shards;
  sc.lookahead = 200;
  sc.threads = threads;
  sc.mailbox_capacity = 256;
  ShardedSimulator engine(sc);
  std::vector<ShardHash> hashes(shards);

  struct Actor {
    ShardedSimulator* engine;
    ShardHash* hashes;
    std::size_t shard;
    std::size_t shards;
    std::uint64_t id;
    std::uint64_t left;
    SimDuration period;
    void fire() {
      hashes[shard].mix(engine->shard(shard).now() ^ (id * 0x9e3779b9u));
      if (left == 0) return;
      --left;
      const std::uint64_t token = (id << 32) ^ left;
      if (shards > 1 && token % 4 == 0) {
        const std::size_t dst =
            (shard + 1 + token % (shards - 1)) % shards;
        const SimTime at = engine->shard(shard).now() +
                           engine->lookahead() + token % 64;
        ShardHash* hs = hashes;
        engine->post(shard, dst, at, [hs, dst, token] {
          hs[dst].mix(token);
        });
      }
      Actor* self = this;
      engine->shard(shard).schedule_after(period, [self] { self->fire(); });
    }
  };

  std::vector<Actor> actors;
  actors.reserve(shards * actors_per_shard);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t a = 0; a < actors_per_shard; ++a) {
      actors.push_back(Actor{&engine, hashes.data(), s, shards,
                             s * actors_per_shard + a, fires_per_actor,
                             static_cast<SimDuration>(11 + 7 * a)});
    }
  }
  for (auto& a : actors) {
    Actor* self = &a;
    engine.shard(a.shard).schedule_at(1 + a.id % 8, [self] { self->fire(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  ShardedMeshResult r;
  r.wall_s = seconds_since(t0);
  r.events = engine.events_processed();
  r.windows = engine.windows();
  r.messages = engine.messages();
  r.threads = engine.threads_used();
  r.shard_windows = engine.shard_windows();
  r.stalled = engine.stalled_shard_windows();
  r.wide_rounds = engine.wide_rounds();
  r.host_ns_per_round =
      (r.wall_s * 1e9 - static_cast<double>(engine.shard_wall_time_ns())) /
      static_cast<double>(std::max<std::uint64_t>(r.windows, 1));
  ShardHash combined;
  for (const auto& h : hashes) combined.mix(h.h);
  combined.mix(r.events);
  combined.mix(r.windows);
  combined.mix(r.messages);
  r.hash = combined.h;
  return r;
}

// --- imbalanced topology: hot shard + periodic cold bursts ----------------

struct ImbalancedMeshResult {
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;          // engine synchronization rounds
  std::uint64_t shard_windows = 0;   // per-shard window executions
  std::uint64_t stalled = 0;         // shard-windows skipped (no work)
  std::uint64_t wide_rounds = 0;     // deterministic at any threads > 1
  std::uint64_t messages = 0;
  std::uint64_t hash = 0;
  std::size_t threads = 0;
  double wall_s = 0.0;
  double stall_frac() const {
    const std::uint64_t total = shard_windows + stalled;
    return total == 0 ? 0.0
                      : static_cast<double>(stalled) / static_cast<double>(total);
  }
};

constexpr SimTime kImbPeriod = 20000;
constexpr int kImbEpochs = 60;
constexpr SimDuration kImbLookahead = 200;

/// A global-window engine's worst case (DESIGN.md §7.8): shard 0 fires
/// continuously and holds the global floor, shards 1..63 wake in short
/// synchronized bursts once per 20 us period and sleep in between. One
/// global window `[floor, floor + lookahead)` would march every shard
/// forward 200 ns at a time — 100 all-stall barrier rounds per quiet gap,
/// kImbEpochs * kImbPeriod / kImbLookahead rounds in all — while per-shard
/// horizons let the hot shard cross each gap in a single fat window and the
/// cold burst rounds spread over the worker threads' fixed shard ranges.
ImbalancedMeshResult imbalanced_mesh(std::size_t threads) {
  constexpr std::size_t kShards = 64;
  constexpr std::uint64_t kBurst = 16;
  ShardedConfig sc;
  sc.shards = kShards;
  sc.lookahead = kImbLookahead;
  sc.threads = threads;
  sc.mailbox_capacity = 1024;
  ShardedSimulator engine(sc);
  std::vector<ShardHash> hashes(kShards);

  struct Hot {
    ShardedSimulator* eng;
    ShardHash* hashes;
    SimTime stop_at;
    Rng rng;
    std::uint64_t fired = 0;
    void fire() {
      Simulator& sim = eng->shard(0);
      hashes[0].mix(sim.now());
      if (sim.now() >= stop_at) return;
      if (++fired % 1024 == 0) {  // rare mid-gap wakeup of a cold shard
        const std::size_t to = 1 + rng.uniform_u64(63);
        ShardHash* hs = hashes;
        ShardedSimulator* e = eng;
        eng->post(0, to, sim.now() + 200 + rng.uniform_u64(100),
                  [e, hs, to] { hs[to].mix(e->shard(to).now()); });
      }
      sim.schedule_after(1 + rng.uniform_u64(11), [this] { fire(); });
    }
  };
  struct Cold {
    ShardedSimulator* eng;
    ShardHash* hashes;
    std::size_t shard;
    SimTime next_burst;
    std::uint64_t burst_left = kBurst;
    int epochs_left = kImbEpochs;
    Rng rng;
    void fire() {
      Simulator& sim = eng->shard(shard);
      hashes[shard].mix(sim.now());
      if (burst_left > 0) {
        --burst_left;
        sim.schedule_after(1 + rng.uniform_u64(5), [this] { fire(); });
        return;
      }
      // Burst done: one message to the next cold shard, then sleep until
      // the next period boundary.
      const std::size_t to = 1 + (shard % 63);
      ShardHash* hs = hashes;
      ShardedSimulator* e = eng;
      eng->post(shard, to, sim.now() + 200 + rng.uniform_u64(50),
                [e, hs, to] { hs[to].mix(e->shard(to).now()); });
      if (--epochs_left <= 0) return;
      next_burst += kImbPeriod;
      burst_left = kBurst;
      sim.schedule_at(next_burst, [this] { fire(); });
    }
  };

  Hot hot{&engine, hashes.data(), kImbPeriod * kImbEpochs, Rng(0x4077)};
  engine.shard(0).schedule_at(1, [&hot] { hot.fire(); });
  std::vector<Cold> colds;
  colds.reserve(kShards - 1);
  for (std::size_t s = 1; s < kShards; ++s) {
    colds.push_back(Cold{&engine, hashes.data(), s,
                         static_cast<SimTime>(100 + s * 3), kBurst, kImbEpochs,
                         Rng(0xC01D + s)});
  }
  for (auto& c : colds) {
    Cold* self = &c;
    engine.shard(c.shard).schedule_at(c.next_burst, [self] { self->fire(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  engine.run();
  ImbalancedMeshResult r;
  r.wall_s = seconds_since(t0);
  r.events = engine.events_processed();
  r.rounds = engine.windows();
  r.shard_windows = engine.shard_windows();
  r.stalled = engine.stalled_shard_windows();
  r.wide_rounds = engine.wide_rounds();
  r.messages = engine.messages();
  r.threads = engine.threads_used();
  ShardHash combined;
  for (const auto& h : hashes) combined.mix(h.h);
  combined.mix(r.events);
  combined.mix(r.rounds);
  combined.mix(r.shard_windows);
  combined.mix(r.stalled);  // deterministic: derived from published state
  combined.mix(r.messages);
  r.hash = combined.h;
  return r;
}

constexpr int kSpeedupReps = 5;

/// Times `run(1)` and `run(threads)` alternately kSpeedupReps times and
/// keeps each side's fastest rep, so host drift hits both sides alike and a
/// one-off stall on either side cannot set the ratio (single ~10-40 ms runs
/// swung the speedups several-fold). Returns false as soon as any rep's
/// hash differs from the first 1-thread rep's.
template <typename Result, typename Run>
bool fastest_alternating(Run run, std::size_t threads, Result& seq,
                         Result& par) {
  for (int rep = 0; rep < kSpeedupReps; ++rep) {
    const Result s = run(1);
    const Result p = run(threads);
    if (rep == 0) {
      seq = s;
      par = p;
    }
    if (s.hash != seq.hash || p.hash != seq.hash) {
      par = p.hash != seq.hash ? p : s;
      return false;
    }
    if (s.wall_s < seq.wall_s) seq = s;
    if (p.wall_s < par.wall_s) par = p;
  }
  return true;
}

/// reserve() throughput for a timeline type under a given load pattern.
template <typename TimelineT>
double reserve_throughput(std::uint64_t reserves, std::uint64_t base_step,
                          std::uint64_t jitter, SimDuration max_service,
                          std::uint64_t release_every, TimelineT& tl) {
  Rng rng(7);
  SimTime base = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < reserves; ++i) {
    base += rng.uniform_u64(base_step);
    tl.reserve(base + rng.uniform_u64(jitter), 1 + rng.uniform_u64(max_service));
    if constexpr (std::is_same_v<TimelineT, CalendarTimeline>) {
      if (release_every != 0 && i % release_every == 0) tl.release(base);
    }
  }
  return static_cast<double>(reserves) / seconds_since(t0);
}

/// reserve() throughput under the graph engine's pattern: every epoch,
/// `streams` workers are swept one after another, each a monotone stream
/// restarting at the epoch start, and release() runs only at the barrier.
/// So most reservations land before the calendar's last interval.
double sweep_restart_throughput(std::uint64_t reserves, std::uint64_t streams,
                                std::uint64_t per_stream,
                                CalendarTimeline& cal) {
  Rng rng(7);
  SimTime epoch_start = 0;
  std::uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < reserves) {
    SimTime barrier = epoch_start;
    for (std::uint64_t s = 0; s < streams; ++s) {
      SimTime cursor = epoch_start;
      for (std::uint64_t i = 0; i < per_stream; ++i) {
        cursor += rng.uniform_u64(8000);
        cursor = cal.reserve_until(cursor, 1 + rng.uniform_u64(16));
      }
      barrier = std::max(barrier, cursor);
    }
    done += streams * per_stream;
    cal.release(barrier);
    epoch_start = barrier;
  }
  return static_cast<double>(done) / seconds_since(t0);
}

}  // namespace
}  // namespace ecoscale

int main(int argc, char** argv) {
  using namespace ecoscale;
  bench::init(argc, argv);
  bench::print_header("EXP-SIMCORE",
                      "discrete-event kernel throughput trajectory");

  // --- schedule/step ------------------------------------------------------
  constexpr std::uint64_t kEvents = 2000000;
  // Warm up allocator/pool state, then measure.
  ring_throughput(kEvents / 10);
  const auto ring = ring_throughput(kEvents);
  backlog_throughput(kEvents / 10);
  const auto backlog = backlog_throughput(kEvents);

  Table kernel({"workload", "events", "events/sec", "pool heap spills"});
  kernel.add_row({"ring (64 actors)", fmt_u64(ring.events),
                  fmt_sci(ring.events_per_sec, 3), fmt_u64(ring.pool_spills)});
  kernel.add_row({"backlog drain", fmt_u64(backlog.events),
                  fmt_sci(backlog.events_per_sec, 3),
                  fmt_u64(backlog.pool_spills)});
  bench::print_table(
      kernel,
      "schedule/step throughput, 40-byte captures (inline fast path;\n"
      "zero heap allocations per event in steady state):");

  // --- reserve throughput -------------------------------------------------
  // In-order pattern: ready times trend forward with modest jitter; the
  // resource keeps up with offered load (gaps exist).
  constexpr std::uint64_t kReserves = 2000000;
  Table res({"resource", "pattern", "reserves/sec", "live intervals",
             "peak live"});
  {
    Timeline fifo("fifo");
    const double rps = reserve_throughput(kReserves, 40, 200, 20, 0, fifo);
    res.add_row({"Timeline", "in-order", fmt_sci(rps, 3), "1", "1"});
  }
  {
    CalendarTimeline cal("cal");
    const double rps = reserve_throughput(kReserves, 40, 200, 20, 0, cal);
    res.add_row({"CalendarTimeline", "in-order", fmt_sci(rps, 3),
                 fmt_u64(cal.live_intervals()),
                 fmt_u64(cal.peak_live_intervals())});
  }
  // Oversubscribed long-run pattern: offered load exceeds capacity, so
  // reservations pile up at the frontier. Pre-coalescing this accumulated
  // one interval per reservation and each reserve() walked the whole tail.
  {
    CalendarTimeline cal("cal");
    const double rps = reserve_throughput(kReserves, 20, 500, 30, 0, cal);
    res.add_row({"CalendarTimeline", "oversubscribed", fmt_sci(rps, 3),
                 fmt_u64(cal.live_intervals()),
                 fmt_u64(cal.peak_live_intervals())});
  }
  // Same pattern with a periodic release watermark (the epoch-boundary
  // call sites in Machine/PgasSystem).
  CalendarTimeline cal_rel("cal");
  const double rel_rps =
      reserve_throughput(kReserves, 20, 500, 30, 4096, cal_rel);
  res.add_row({"CalendarTimeline", "oversubscribed+release",
               fmt_sci(rel_rps, 3), fmt_u64(cal_rel.live_intervals()),
               fmt_u64(cal_rel.peak_live_intervals())});
  // Graph-engine pattern: 32 streams x 400 reservations per epoch, so up
  // to ~12k intervals are live before each barrier's release().
  CalendarTimeline cal_sweep("cal");
  const double sweep_rps =
      sweep_restart_throughput(kReserves, 32, 400, cal_sweep);
  res.add_row({"CalendarTimeline", "sweep-restart", fmt_sci(sweep_rps, 3),
               fmt_u64(cal_sweep.live_intervals()),
               fmt_u64(cal_sweep.peak_live_intervals())});
  bench::print_table(
      res,
      "reserve() throughput, 2M reservations per pattern. Coalescing keeps\n"
      "the calendar's live-interval set bounded; release() additionally\n"
      "prunes the retired past:");

  // --- sharded parallel engine scaling ------------------------------------
  // 8 shards of cross-posting actors, run sequentially and at the
  // requested --sim-threads (fastest of kSpeedupReps alternating reps per
  // side); identical combined hashes in every rep demonstrate the
  // deterministic merge, the events/sec column the window-loop scaling.
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kActorsPerShard = 16;
  constexpr std::uint64_t kFires = 1500;
  sharded_mesh(kShards, 1, kActorsPerShard, kFires / 8);  // warm-up
  ShardedMeshResult seq;
  ShardedMeshResult par;
  const bool hashes_match = fastest_alternating(
      [&](std::size_t threads) {
        return sharded_mesh(kShards, threads, kActorsPerShard, kFires);
      },
      bench::sim_threads(), seq, par);
  const double seq_eps = static_cast<double>(seq.events) / seq.wall_s;
  const double par_eps = static_cast<double>(par.events) / par.wall_s;
  Table sharded({"sim threads", "events", "windows", "wide rounds",
                 "messages", "events/sec", "speedup", "host ns/round",
                 "hash"});
  sharded.add_row({"1", fmt_u64(seq.events), fmt_u64(seq.windows),
                   fmt_u64(seq.wide_rounds), fmt_u64(seq.messages),
                   fmt_sci(seq_eps, 3), "1.00x",
                   fmt_u64(static_cast<std::uint64_t>(
                       std::max(seq.host_ns_per_round, 0.0))),
                   fmt_u64(seq.hash)});
  sharded.add_row({fmt_u64(par.threads), fmt_u64(par.events),
                   fmt_u64(par.windows), fmt_u64(par.wide_rounds),
                   fmt_u64(par.messages), fmt_sci(par_eps, 3),
                   fmt_ratio(par_eps / seq_eps), "-", fmt_u64(par.hash)});
  bench::print_table(
      sharded,
      "sharded engine, 8 shards x 16 cross-posting actors (--sim-threads\n"
      "selects the parallel row; hashes must match — the merge order is\n"
      "canonical, so thread count never changes results; host ns/round is\n"
      "the 1-thread time outside shard windows per round):");
  if (!hashes_match) {
    std::cerr << "FATAL: sharded engine hash mismatch across thread counts\n";
    return 1;
  }

  // --- imbalanced topology: per-shard horizons ---------------------------
  // 1 hot shard + 63 periodic-burst cold shards, run sequentially and at
  // --sim-threads, fastest of kSpeedupReps alternating reps per side (the
  // speedup is the ratio of the two). Deterministic columns (events,
  // rounds, shard windows, messages, hash) are identical across thread
  // counts — enforced in-binary below — and the round count is the horizons' acceptance metric: a
  // global window would burn ~100 all-stall barrier rounds per quiet gap,
  // per-shard horizons cross each gap in one window, so the parallel run
  // stops being barrier-bound.
  imbalanced_mesh(1);  // warm-up
  ImbalancedMeshResult imb_seq;
  ImbalancedMeshResult imb_par;
  const bool imb_hashes_match = fastest_alternating(
      imbalanced_mesh, bench::sim_threads(), imb_seq, imb_par);
  const double imb_speedup = imb_seq.wall_s / imb_par.wall_s;
  const std::uint64_t global_window_rounds =
      static_cast<std::uint64_t>(kImbEpochs) * kImbPeriod / kImbLookahead;
  Table imb({"threads", "events", "rounds", "wide rounds", "shard windows",
             "stall %", "messages", "events/sec", "hash"});
  const auto imb_row = [&imb](const ImbalancedMeshResult& r) {
    imb.add_row({fmt_u64(r.threads) + "t", fmt_u64(r.events),
                 fmt_u64(r.rounds), fmt_u64(r.wide_rounds),
                 fmt_u64(r.shard_windows),
                 fmt_pct(r.stall_frac()), fmt_u64(r.messages),
                 fmt_sci(static_cast<double>(r.events) / r.wall_s, 3),
                 fmt_u64(r.hash)});
  };
  imb_row(imb_seq);
  imb_row(imb_par);
  bench::print_table(
      imb,
      "imbalanced mesh, 1 hot + 63 burst-idle shards (per-shard horizons\n"
      "cross the quiet gaps in one round; hashes must match across thread\n"
      "counts):");
  std::cout << "imbalanced speedup " << fmt_ratio(imb_speedup) << " (rounds "
            << fmt_u64(imb_seq.rounds) << " vs " << global_window_rounds
            << " for one global window; stall "
            << fmt_pct(imb_seq.stall_frac()) << ")\n\n";
  if (!imb_hashes_match) {
    std::cerr << "FATAL: imbalanced-mesh hash mismatch across thread "
                 "counts (" << imb_seq.hash << " vs " << imb_par.hash
              << ")\n";
    return 1;
  }
  if (imb_seq.rounds * 4 >= global_window_rounds) {
    std::cerr << "FATAL: per-shard horizons stopped collapsing quiet gaps ("
              << imb_seq.rounds << " rounds vs " << global_window_rounds
              << " for one global window)\n";
    return 1;
  }

  // --- machine-readable summary ------------------------------------------
  std::cout << "SIMCORE_JSON {"
            << "\"ring_events_per_sec\": " << ring.events_per_sec
            << ", \"backlog_events_per_sec\": " << backlog.events_per_sec
            << ", \"events\": " << ring.events
            << ", \"pool_heap_spills\": "
            << ring.pool_spills + backlog.pool_spills
            << ", \"calendar_oversubscribed_release_reserves_per_sec\": "
            << rel_rps
            << ", \"calendar_peak_live_intervals\": "
            << cal_rel.peak_live_intervals()
            << ", \"calendar_sweep_restart_reserves_per_sec\": " << sweep_rps
            << ", \"sharded_events_per_sec_1t\": " << seq_eps
            << ", \"sharded_events_per_sec_nt\": " << par_eps
            << ", \"sharded_host_ns_per_round_1t\": " << seq.host_ns_per_round
            << ", \"sharded_threads\": " << par.threads
            << ", \"sharded_hash_match\": " << (hashes_match ? 1 : 0)
            << ", \"sharded_windows_executed\": " << par.shard_windows
            << ", \"sharded_barrier_stall_pct\": "
            << 100.0 * static_cast<double>(par.stalled) /
                   static_cast<double>(par.shard_windows + par.stalled)
            << ", \"sharded_wide_rounds\": " << par.wide_rounds
            << ", \"imb_adaptive_speedup\": " << imb_speedup
            << ", \"imb_adaptive_stall_pct\": "
            << 100.0 * imb_seq.stall_frac()
            << ", \"imb_rounds_adaptive\": " << imb_seq.rounds
            << ", \"imb_wide_rounds\": " << imb_par.wide_rounds
            << ", \"imb_hash_match\": " << (imb_hashes_match ? 1 : 0)
            << "}\n";
  return 0;
}
