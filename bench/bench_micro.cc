// Micro-benchmarks of the simulator's primitive operations (google-benchmark
// harness). These measure the *simulator's* own cost, not simulated time —
// useful for keeping the experiment harnesses fast as the models grow.
#include <benchmark/benchmark.h>

#include "address/smmu.h"
#include "common/rng.h"
#include "fabric/bitstream.h"
#include "hls/estimate.h"
#include "interconnect/network.h"
#include "memory/cache.h"
#include "model/regression.h"

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
