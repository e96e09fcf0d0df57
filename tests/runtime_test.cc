#include <gtest/gtest.h>

#include "hls/dse.h"
#include "runtime/allocator.h"
#include "runtime/chain.h"
#include "runtime/machine.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"

namespace ecoscale {
namespace {

MachineConfig small_machine() {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 2;
  return cfg;
}

TEST(Machine, ConstructionWiresEverything) {
  Machine m(small_machine());
  EXPECT_EQ(m.worker_count(), 4u);
  EXPECT_EQ(m.node_count(), 2u);
  EXPECT_EQ(m.pool(0).size(), 2u);
  EXPECT_EQ(m.pgas().worker_count(), 4u);
  EXPECT_EQ(m.mpi().size(), 2u);
  EXPECT_EQ(m.worker(WorkerCoord{1, 1}).coord(), (WorkerCoord{1, 1}));
}

TEST(TaskResult, QueueWaitAndTurnaroundMeasureFromRelease) {
  TaskResult r;
  r.release = microseconds(2);
  r.started = microseconds(5);
  r.finished = microseconds(12);
  EXPECT_EQ(r.queue_wait(), microseconds(3));
  EXPECT_EQ(r.turnaround(), microseconds(10));
}

// --- allocator -------------------------------------------------------------

TEST(Allocator, LocalPlacesEverythingAtAnchor) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  const auto buf = alloc.allocate(mebibytes(1), Distribution::kLocal,
                                  {WorkerCoord{1, 0}});
  EXPECT_EQ(buf.size(), mebibytes(1));
  ASSERT_EQ(buf.partitions().size(), 1u);
  EXPECT_EQ(buf.home_of(0), (WorkerCoord{1, 0}));
  EXPECT_EQ(buf.home_of(mebibytes(1) - 1), (WorkerCoord{1, 0}));
}

TEST(Allocator, BlockSplitsAcrossWorkers) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  std::vector<WorkerCoord> workers;
  for (std::size_t i = 0; i < 4; ++i) workers.push_back(m.pgas().coord(i));
  const auto buf = alloc.allocate(mebibytes(4), Distribution::kBlock, workers);
  EXPECT_EQ(buf.partitions().size(), 4u);
  EXPECT_EQ(buf.home_of(0), workers[0]);
  EXPECT_EQ(buf.home_of(mebibytes(4) - 1), workers[3]);
  // Offsets tile the buffer.
  Bytes expect = 0;
  for (const auto& p : buf.partitions()) {
    EXPECT_EQ(p.offset, expect);
    expect += p.size;
  }
  EXPECT_EQ(expect, mebibytes(4));
}

TEST(Allocator, CyclicRoundRobinsPages) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  std::vector<WorkerCoord> workers{{0, 0}, {0, 1}};
  const auto buf =
      alloc.allocate(4 * kPageSize, Distribution::kCyclic, workers);
  EXPECT_EQ(buf.partitions().size(), 4u);
  EXPECT_EQ(buf.home_of(0 * kPageSize), workers[0]);
  EXPECT_EQ(buf.home_of(1 * kPageSize), workers[1]);
  EXPECT_EQ(buf.home_of(2 * kPageSize), workers[0]);
}

TEST(Allocator, PartitionOfMapsOffsetsToHomes) {
  Machine m(small_machine());
  TopologyAllocator alloc(m.pgas());
  const auto buf = alloc.allocate(2 * kPageSize, Distribution::kBlock,
                                  {WorkerCoord{0, 0}, WorkerCoord{1, 1}});
  EXPECT_EQ(buf.partition_of(10).base.home(), (WorkerCoord{0, 0}));
  EXPECT_EQ(buf.partition_of(kPageSize + 10).base.home(),
            (WorkerCoord{1, 1}));
  EXPECT_THROW(buf.partition_of(2 * kPageSize), CheckError);
}

// --- runtime scheduler ----------------------------------------------------------

struct SchedRig {
  explicit SchedRig(RuntimeConfig cfg = {}) : machine(small_machine()) {
    runtime = std::make_unique<RuntimeSystem>(machine, sim, cfg);
    kernel = make_montecarlo_kernel();
    runtime->register_kernel(kernel, emit_variants(kernel, 2));
  }

  Task make_task(TaskId id, std::uint64_t items, WorkerCoord home,
                 SimTime release = 0) const {
    Task t;
    t.id = id;
    t.kernel = kernel.id;
    t.items = items;
    t.features.items = static_cast<double>(items);
    t.features.bytes =
        static_cast<double>(items * (kernel.bytes_in + kernel.bytes_out));
    t.home = home;
    t.release = release;
    return t;
  }

  Machine machine;
  Simulator sim;
  std::unique_ptr<RuntimeSystem> runtime;
  KernelIR kernel;
};

TEST(Runtime, CompletesAllTasks) {
  SchedRig rig;
  for (TaskId i = 0; i < 12; ++i) {
    rig.runtime->submit(rig.make_task(i, 5000, {0, 0}, microseconds(i)));
  }
  rig.runtime->run();
  EXPECT_EQ(rig.runtime->results().size(), 12u);
  const auto s = rig.runtime->stats();
  EXPECT_GT(s.makespan, 0u);
  EXPECT_GT(s.energy, 0.0);
  EXPECT_EQ(s.sw_tasks + s.hw_tasks, 12u);
}

TEST(Runtime, AlwaysSoftwareNeverTouchesFabric) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 8; ++i) {
    rig.runtime->submit(rig.make_task(i, 100000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_EQ(s.sw_tasks, 8u);
  EXPECT_EQ(s.hw_tasks, 0u);
}

TEST(Runtime, AlwaysHardwareUsesFabric) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kAlwaysHardware;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 8; ++i) {
    rig.runtime->submit(rig.make_task(i, 100000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_EQ(s.hw_tasks, 8u);
}

TEST(Runtime, ThresholdSplitsBySize) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kSizeThreshold;
  cfg.size_threshold = 10000;
  SchedRig rig(cfg);
  rig.runtime->submit(rig.make_task(0, 100, {0, 0}));
  rig.runtime->submit(rig.make_task(1, 50000, {0, 1}));
  rig.runtime->run();
  const auto& results = rig.runtime->results();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    if (r.id == 0) {
      EXPECT_EQ(r.device, DeviceClass::kCpu);
    }
    if (r.id == 1) {
      EXPECT_NE(r.device, DeviceClass::kCpu);
    }
  }
}

TEST(Runtime, ModelBasedLearnsToOffloadBigTasks) {
  RuntimeConfig cfg;
  cfg.placement = PlacementPolicy::kModelBased;
  SchedRig rig(cfg);
  // A long stream of identical big tasks: after warmup the model should
  // send them to hardware.
  for (TaskId i = 0; i < 60; ++i) {
    rig.runtime->submit(
        rig.make_task(i, 200000, {0, 0}, milliseconds(i)));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_GT(s.hw_tasks, s.sw_tasks);
}

TEST(Runtime, LazySpillsOnlyWhenDeep) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 4;
  SchedRig rig(cfg);
  // 3 tasks: below the spill depth, nothing forwards.
  for (TaskId i = 0; i < 3; ++i) {
    rig.runtime->submit(rig.make_task(i, 50000, {0, 0}));
  }
  rig.runtime->run();
  EXPECT_EQ(rig.runtime->stats().forwarded_tasks, 0u);
}

TEST(Runtime, LazySpillsUnderBurst) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 2;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 16; ++i) {
    rig.runtime->submit(rig.make_task(i, 200000, {0, 0}));
  }
  rig.runtime->run();
  const auto s = rig.runtime->stats();
  EXPECT_GT(s.forwarded_tasks, 0u);
  EXPECT_GT(s.monitor_messages, 0u);
}

TEST(Runtime, LazyTalksLessThanPollingOracle) {
  RuntimeConfig lazy_cfg;
  lazy_cfg.distribution = DistributionPolicy::kLazyLocal;
  RuntimeConfig poll_cfg;
  poll_cfg.distribution = DistributionPolicy::kPollLeastLoaded;
  SchedRig lazy(lazy_cfg);
  SchedRig poll(poll_cfg);
  for (TaskId i = 0; i < 32; ++i) {
    lazy.runtime->submit(lazy.make_task(i, 100000, {0, 0}));
    poll.runtime->submit(poll.make_task(i, 100000, {0, 0}));
  }
  lazy.runtime->run();
  poll.runtime->run();
  EXPECT_LT(lazy.runtime->stats().monitor_messages,
            poll.runtime->stats().monitor_messages);
  // The burst at one worker drives lazy diffusion.
  EXPECT_GT(lazy.runtime->stats().forwarded_tasks, 0u);
}

TEST(Runtime, PollPolicyCostScalesWithWorkers) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kPollLeastLoaded;
  SchedRig rig(cfg);
  for (TaskId i = 0; i < 10; ++i) {
    rig.runtime->submit(rig.make_task(i, 1000, {0, 0}));
  }
  rig.runtime->run();
  // 2 messages per non-self worker per task = 2*3*10.
  EXPECT_EQ(rig.runtime->stats().monitor_messages, 60u);
}

TEST(Runtime, RejectsUnregisteredKernel) {
  SchedRig rig;
  Task t = rig.make_task(0, 10, {0, 0});
  t.kernel = 9999;
  EXPECT_THROW(rig.runtime->submit(t), CheckError);
}

// --- the forwarded bit ------------------------------------------------------
//
// TaskResult::forwarded means "left its home worker's queue": a lazy spill
// or a routed placement sets it before the task is first queued, and a
// failover or repair re-arrival keeps whatever the first queueing decided.
// Software placement keeps executed_on equal to the queue the task ran from.

/// Burst of `n` software tasks at worker {0, 0}; returns the rig after run().
std::unique_ptr<SchedRig> forwarded_burst(RuntimeConfig cfg, TaskId n) {
  cfg.placement = PlacementPolicy::kAlwaysSoftware;
  auto rig = std::make_unique<SchedRig>(cfg);
  for (TaskId i = 0; i < n; ++i) {
    rig->runtime->submit(rig->make_task(i, 200000, {0, 0}));
  }
  rig->runtime->run();
  return rig;
}

TEST(Runtime, SpilledTaskIsForwarded) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kLazyLocal;
  cfg.spill_depth = 2;
  const auto rig = forwarded_burst(cfg, 16);
  std::uint64_t moved = 0;
  for (const TaskResult& r : rig->runtime->results()) {
    // A spill cascade from worker 0 never returns to worker 0.
    EXPECT_EQ(r.forwarded, r.executed_on != 0) << "task " << r.id;
    if (r.executed_on != 0) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(rig->runtime->stats().forwarded_tasks, moved);
}

TEST(Runtime, CentrallyRoutedTaskIsForwarded) {
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kCentralized;
  const auto rig = forwarded_burst(cfg, 12);
  std::uint64_t moved = 0;
  for (const TaskResult& r : rig->runtime->results()) {
    EXPECT_EQ(r.forwarded, r.executed_on != 0) << "task " << r.id;
    if (r.executed_on != 0) ++moved;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 12u);
  EXPECT_EQ(rig->runtime->stats().forwarded_tasks, moved);
}

TEST(Runtime, HomeQueuedTaskFailingOverIsNotForwarded) {
  // Worker 0 dies for good while running one task with seven queued
  // behind it. Detection moves the victim and the queue to survivors, but
  // all eight were first queued at home, so none counts as forwarded.
  RuntimeConfig cfg;
  cfg.distribution = DistributionPolicy::kHomeOnly;
  cfg.faults.enabled = true;
  cfg.faults.scripted_crashes.push_back(
      {/*worker=*/0, /*at=*/microseconds(5), /*permanent=*/true,
       /*repair_after=*/0});
  const auto rig = forwarded_burst(cfg, 8);
  const auto& results = rig->runtime->results();
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(rig->runtime->recovery_log().size(), 1u);
  const RuntimeStats s = rig->runtime->stats();
  EXPECT_EQ(s.task_failovers, 8u);
  for (const TaskResult& r : results) {
    EXPECT_NE(r.executed_on, 0u) << "task " << r.id;
    EXPECT_FALSE(r.forwarded) << "task " << r.id;
  }
  EXPECT_EQ(s.forwarded_tasks, 0u);
}

TEST(Runtime, QueueWaitGrowsUnderLoad) {
  SchedRig rig;
  for (TaskId i = 0; i < 20; ++i) {
    rig.runtime->submit(rig.make_task(i, 500000, {0, 0}));
  }
  rig.runtime->run();
  auto s = rig.runtime->stats();
  EXPECT_GT(s.queue_wait_ns.max(), s.queue_wait_ns.min());
}

// --- chaining -----------------------------------------------------------------

TEST(Chain, ChainedMovesLessDramTraffic) {
  Worker w({0, 0}, WorkerConfig{});
  const KernelIR kernels[] = {make_stencil5_kernel(), make_sha_like_kernel(),
                              make_spmv_kernel()};
  std::vector<AcceleratorModule> stages;
  for (const auto& k : kernels) {
    stages.push_back(emit_variants(k, 1).front());
  }
  const auto chained = run_chained(w, stages, kernels, 100000, 0);
  Worker w2({0, 1}, WorkerConfig{});
  const auto staged = run_staged(w2, stages, kernels, 100000, 0);
  ASSERT_TRUE(chained.fits);
  ASSERT_TRUE(staged.fits);
  EXPECT_LT(chained.dram_bytes, staged.dram_bytes);
  EXPECT_GT(chained.ops_per_dram_byte, staged.ops_per_dram_byte);
  EXPECT_LT(chained.energy, staged.energy);
}

TEST(Chain, SingleStageDegenerate) {
  Worker w({0, 0}, WorkerConfig{});
  const KernelIR kernels[] = {make_stencil5_kernel()};
  const std::vector<AcceleratorModule> stages{
      emit_variants(kernels[0], 1).front()};
  const auto chained = run_chained(w, stages, kernels, 1000, 0);
  ASSERT_TRUE(chained.fits);
  EXPECT_EQ(chained.dram_bytes,
            1000 * (stages[0].bytes_in_per_item +
                    stages[0].bytes_out_per_item));
}

TEST(Chain, OversizedChainReportsNoFit) {
  WorkerConfig cfg;
  cfg.fabric.fabric_width = 2;
  cfg.fabric.fabric_height = 2;
  Worker w({0, 0}, cfg);
  const KernelIR kernels[] = {make_montecarlo_kernel(),
                              make_montecarlo_kernel()};
  AcceleratorModule big = emit_variants(kernels[0], 1).front();
  big.shape = ModuleShape{4, 4};
  const std::vector<AcceleratorModule> stages{big, big};
  const auto r = run_chained(w, stages, kernels, 100, 0);
  EXPECT_FALSE(r.fits);
}

}  // namespace
}  // namespace ecoscale
