// Micro-benchmarks of the simulator's primitive operations (google-benchmark
// harness). These measure the *simulator's* own cost, not simulated time —
// useful for keeping the experiment harnesses fast as the models grow.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "address/smmu.h"
#include "common/rng.h"
#include "fabric/bitstream.h"
#include "hls/estimate.h"
#include "interconnect/network.h"
#include "memory/cache.h"
#include "model/regression.h"
#include "sim/timeline.h"

namespace ecoscale {
namespace {

void BM_RngU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(1000));
  }
}
BENCHMARK(BM_RngU64);

void BM_CacheAccess(benchmark::State& state) {
  Cache cache("c", CacheConfig{});
  Rng rng(2);
  for (auto _ : state) {
    const std::uint64_t line = rng.uniform_u64(1 << 14);
    if (cache.state(line) == LineState::kInvalid) {
      benchmark::DoNotOptimize(cache.fill(line, LineState::kExclusive));
    } else {
      benchmark::DoNotOptimize(cache.touch(line, false));
    }
  }
}
BENCHMARK(BM_CacheAccess);

void BM_SmmuTranslateHit(benchmark::State& state) {
  Smmu smmu;
  smmu.stage1(1).map(5, 6);
  smmu.stage2().map(6, 7);
  (void)smmu.translate(1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smmu.translate(1, 5));
  }
}
BENCHMARK(BM_SmmuTranslateHit);

void BM_NetworkSend(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.level_params = {{0, LinkParams{}}};
  Network net(make_tree({8, 8}), cfg);
  Rng rng(3);
  Packet p{PacketType::kWrite, {}, {}, 64};
  SimTime now = 0;
  for (auto _ : state) {
    const auto a = rng.uniform_u64(64);
    const auto b = rng.uniform_u64(64);
    benchmark::DoNotOptimize(net.send(a, b, p, now));
    now += 1000;
  }
}
BENCHMARK(BM_NetworkSend);

// The graph workload's calendar traffic: each epoch, 32 worker streams run
// one after another, each monotone from the epoch start, and every step
// reserves on one of 128 calendars (the links and DRAM channels a remote
// read crosses); release() runs at the barrier. About 130k intervals are
// live before each release, 2 MB spread over 128 arrays, so unlike
// bench_simcore's single-calendar sweep-restart row, lookups miss cache.
void BM_CalendarSweepRestart128(benchmark::State& state) {
  constexpr std::size_t kCalendars = 128;
  constexpr std::uint64_t kStreams = 32;
  constexpr std::uint64_t kPerStream = 4096;
  std::vector<CalendarTimeline> cals(kCalendars);
  Rng rng(8);
  SimTime epoch_start = 0;
  SimTime barrier = 0;
  SimTime cursor = 0;
  std::uint64_t step = 0;
  for (auto _ : state) {
    if (step % kPerStream == 0) {
      if (step == kStreams * kPerStream) {
        for (auto& cal : cals) cal.release(barrier);
        epoch_start = barrier;
        step = 0;
      }
      cursor = epoch_start;
    }
    cursor += rng.uniform_u64(2000);
    cursor = cals[rng.uniform_u64(kCalendars)].reserve_until(
        cursor, 1 + rng.uniform_u64(16));
    barrier = std::max(barrier, cursor);
    ++step;
  }
}
BENCHMARK(BM_CalendarSweepRestart128);

// The calendar's worst case: two streams alternating between the far ends
// of one calendar holding range(0) intervals, so each reservation moves the
// whole array across the gap: O(live) per reserve(). Both streams coalesce
// into their end's interval, so the live count stays put.
void BM_CalendarPingPong(benchmark::State& state) {
  const auto runs = static_cast<SimTime>(state.range(0));
  constexpr SimTime kFrontRoom = SimTime{1} << 40;
  CalendarTimeline cal;
  for (SimTime i = 0; i < runs; ++i) cal.reserve(kFrontRoom + 10 * i, 6);
  SimTime front = 0;
  SimTime back = kFrontRoom + 10 * runs;
  bool at_front = true;
  for (auto _ : state) {
    if (at_front) {
      front = cal.reserve_until(front, 1);
    } else {
      back = cal.reserve_until(back, 1);
    }
    at_front = !at_front;
  }
}
BENCHMARK(BM_CalendarPingPong)->Arg(1 << 14)->Arg(1 << 17);

void BM_RidgeObserve(benchmark::State& state) {
  RidgeRegression model(5);
  Rng rng(4);
  for (auto _ : state) {
    const double x = rng.uniform();
    model.observe(std::array{1.0, x, x * x, 2 * x, 1 - x}, 3 * x);
  }
}
BENCHMARK(BM_RidgeObserve);

void BM_RidgePredict(benchmark::State& state) {
  RidgeRegression model(5);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform();
    model.observe(std::array{1.0, x, x * x, 2 * x, 1 - x}, 3 * x);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.predict(std::array{1.0, 0.5, 0.25, 1.0, 0.5}));
  }
}
BENCHMARK(BM_RidgePredict);

// One observe -> predict cycle: the model-based placement path, where the
// predict after each observation pays the Cholesky solve.
void BM_RidgeObservePredict(benchmark::State& state) {
  RidgeRegression model(5);
  Rng rng(6);
  for (auto _ : state) {
    const double x = rng.uniform();
    const std::array<double, 5> f{1.0, x, x * x, 2 * x, 1 - x};
    model.observe(f, 3 * x);
    benchmark::DoNotOptimize(model.predict(f));
  }
}
BENCHMARK(BM_RidgeObservePredict);

void BM_BitstreamCompressRle(benchmark::State& state) {
  const auto bs = generate_bitstream(4, 0.3, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress_rle(bs));
  }
}
BENCHMARK(BM_BitstreamCompressRle);

void BM_HlsEstimate(benchmark::State& state) {
  const auto kernel = make_montecarlo_kernel();
  HlsDesign d;
  d.unroll = 8;
  d.array_partition = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_design(kernel, d));
  }
}
BENCHMARK(BM_HlsEstimate);

}  // namespace
}  // namespace ecoscale

BENCHMARK_MAIN();
