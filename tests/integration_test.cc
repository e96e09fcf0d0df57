// End-to-end tests through the public EcoRuntime (OpenCL-style) API —
// the flows the examples exercise, asserted tightly.
#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "apps/stencil.h"
#include "runtime/api.h"

namespace ecoscale {
namespace {

MachineConfig machine_2x2() {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  return cfg;
}

TEST(EcoRuntime, DeviceDiscovery) {
  EcoRuntime rt(machine_2x2());
  EXPECT_EQ(rt.device_count(), 4u);
}

TEST(EcoRuntime, BufferWriteReadRoundTrip) {
  EcoRuntime rt(machine_2x2());
  auto buf = rt.create_buffer(3 * kPageSize, Distribution::kBlock);
  std::vector<std::uint8_t> data(2 * kPageSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 251);
  }
  rt.write_buffer(buf, kPageSize / 2, data);  // straddles partitions
  std::vector<std::uint8_t> out(data.size());
  rt.read_buffer(buf, kPageSize / 2, out);
  EXPECT_EQ(out, data);
}

TEST(EcoRuntime, LocalBufferAnchored) {
  EcoRuntime rt(machine_2x2());
  auto buf = rt.create_buffer(kPageSize, Distribution::kLocal,
                              WorkerCoord{1, 1});
  EXPECT_EQ(buf.layout().home_of(0), (WorkerCoord{1, 1}));
}

TEST(EcoRuntime, KernelCreationRunsDse) {
  EcoRuntime rt(machine_2x2());
  auto kernel = rt.create_kernel(make_montecarlo_kernel(), 3);
  EXPECT_FALSE(kernel.variants().empty());
  EXPECT_LE(kernel.variants().size(), 3u);
}

TEST(EcoRuntime, DistributedEnqueueFansOutPerPartition) {
  EcoRuntime rt(machine_2x2());
  auto kernel = rt.create_kernel(make_stencil5_kernel());
  auto buf = rt.create_buffer(4 * kPageSize, Distribution::kBlock);
  const auto event = rt.enqueue(kernel, buf, 40000);
  EXPECT_EQ(event.tasks.size(), buf.layout().partitions().size());
  rt.finish();
  const auto& results = rt.scheduler().results();
  ASSERT_EQ(results.size(), event.tasks.size());
  // Items split across partitions sum to the request.
  const auto stats = rt.stats();
  EXPECT_EQ(stats.sw_tasks + stats.hw_tasks, results.size());
}

TEST(EcoRuntime, LocalBufferTaskRunsAtItsAnchor) {
  EcoRuntime rt(machine_2x2());
  auto kernel = rt.create_kernel(make_cart_split_kernel());
  auto buf = rt.create_buffer(kPageSize, Distribution::kLocal,
                              WorkerCoord{1, 0});
  const auto event = rt.enqueue(kernel, buf, 1000);
  ASSERT_EQ(event.tasks.size(), 1u);
  rt.finish();
  const auto& results = rt.scheduler().results();
  ASSERT_EQ(results.size(), 1u);
  // With the default lazy policy and an idle machine the task runs at home.
  EXPECT_EQ(results[0].executed_on, rt.machine().pgas().flat({1, 0}));
}

TEST(EcoRuntime, FunctionalBodyTransformsBufferContents) {
  EcoRuntime rt(machine_2x2());
  auto kernel = rt.create_kernel(make_sha_like_kernel());
  kernel.set_body([](std::span<std::uint8_t> data, std::uint64_t) {
    for (auto& b : data) b = static_cast<std::uint8_t>(b + 1);
  });
  auto buf = rt.create_buffer(2 * kPageSize, Distribution::kBlock);
  std::vector<std::uint8_t> zeros(64, 0);
  rt.write_buffer(buf, 0, zeros);
  (void)rt.enqueue(kernel, buf, 128);
  rt.finish();
  std::vector<std::uint8_t> out(64);
  rt.read_buffer(buf, 0, out);
  for (const auto b : out) EXPECT_EQ(b, 1);
}

TEST(EcoRuntime, ModelBasedRuntimeOffloadsHeavyStream) {
  RuntimeConfig rc;
  rc.placement = PlacementPolicy::kModelBased;
  EcoRuntime rt(machine_2x2(), rc);
  auto kernel = rt.create_kernel(make_montecarlo_kernel());
  auto buf = rt.create_buffer(mebibytes(1), Distribution::kLocal,
                              WorkerCoord{0, 0});
  for (int i = 0; i < 40; ++i) {
    (void)rt.enqueue(kernel, buf, 150000, milliseconds(i));
  }
  rt.finish();
  const auto stats = rt.stats();
  EXPECT_GT(stats.hw_tasks, 0u);
  EXPECT_GT(stats.energy, 0.0);
  EXPECT_GT(rt.machine().total_energy(), 0.0);
}

TEST(EcoRuntime, StencilEndToEndWithHaloSemantics) {
  // Functional stencil on host data moved through PGAS buffers: verifies
  // the data plane is trustworthy for the examples.
  EcoRuntime rt(machine_2x2());
  apps::Grid2D grid(32, 32, 0.0);
  for (std::size_t x = 0; x < 32; ++x) grid.at(x, 0) = 1.0;
  auto buf = rt.create_buffer(grid.data().size() * sizeof(double),
                              Distribution::kBlock);
  rt.write_buffer(buf, 0,
                  std::span(reinterpret_cast<const std::uint8_t*>(
                                grid.data().data()),
                            grid.data().size() * sizeof(double)));
  std::vector<double> back(grid.data().size());
  rt.read_buffer(buf, 0,
                 std::span(reinterpret_cast<std::uint8_t*>(back.data()),
                           back.size() * sizeof(double)));
  EXPECT_EQ(back, grid.data());
}

TEST(EcoRuntime, SharedFabricToggleChangesRemoteUse) {
  RuntimeConfig shared;
  shared.placement = PlacementPolicy::kAlwaysHardware;
  shared.share_fabric = true;
  shared.distribution = DistributionPolicy::kHomeOnly;
  RuntimeConfig isolated = shared;
  isolated.share_fabric = false;

  auto run = [](const RuntimeConfig& rc) {
    EcoRuntime rt(machine_2x2(), rc);
    auto kernel = rt.create_kernel(make_montecarlo_kernel());
    auto buf = rt.create_buffer(kPageSize, Distribution::kLocal,
                                WorkerCoord{0, 0});
    for (int i = 0; i < 24; ++i) {
      (void)rt.enqueue(kernel, buf, 400000);
    }
    rt.finish();
    return rt.stats();
  };
  const auto with_sharing = run(shared);
  const auto without = run(isolated);
  EXPECT_EQ(without.remote_hw_tasks, 0u);
  EXPECT_EQ(with_sharing.sw_tasks + with_sharing.hw_tasks, 24u);
}

}  // namespace
}  // namespace ecoscale
