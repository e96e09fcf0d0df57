// OpenCL-style host API with the ECOSCALE extensions (paper §4.2, §4.4).
//
// The paper extends OpenCL in three ways, all present here:
//  1. PGAS data scoping — buffers carry a Distribution (NUMA placement
//     across workers) instead of living on one device.
//  2. Scalable data transfers between address-space partitions — direct
//     loads/stores and DMA over UNIMEM instead of host-mediated copies.
//  3. Functions synthesisable to hardware on demand — a kernel is created
//     from its IR, the HLS explorer emits module variants, and the runtime
//     decides SW vs. HW per invocation at runtime.
//
// Command queues are *distributed*: an enqueue over a partitioned buffer
// fans out one task per partition, each homed at the partition's worker
// ("distributed command queues and transparent command queue management
// across workers").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hls/dse.h"
#include "runtime/allocator.h"
#include "runtime/machine.h"
#include "runtime/scheduler.h"
#include "sim/simulator.h"

namespace ecoscale {

class EcoRuntime;

/// A partitioned global buffer handle.
class EcoBuffer {
 public:
  Bytes size() const { return buffer_.size(); }
  const DistributedBuffer& layout() const { return buffer_; }

 private:
  friend class EcoRuntime;
  DistributedBuffer buffer_;
};

/// A kernel: IR plus the HLS-emitted hardware variants.
class EcoKernel {
 public:
  const KernelIR& ir() const { return ir_; }
  const std::vector<AcceleratorModule>& variants() const { return variants_; }

  /// Optional host-side functional body, applied to each partition's bytes
  /// when the kernel is enqueued (keeps results verifiable while timing is
  /// simulated). Receives (data, items_in_partition).
  using Body = std::function<void(std::span<std::uint8_t>, std::uint64_t)>;
  void set_body(Body body) { body_ = std::move(body); }

 private:
  friend class EcoRuntime;
  KernelIR ir_;
  std::vector<AcceleratorModule> variants_;
  Body body_;
};

/// Completion handle: resolves after EcoRuntime::finish().
struct EcoEvent {
  std::vector<TaskId> tasks;
};

class EcoRuntime {
 public:
  explicit EcoRuntime(MachineConfig machine_config = {},
                      RuntimeConfig runtime_config = {});

  // --- platform/device discovery ---
  std::size_t device_count() const { return machine_->worker_count(); }
  Machine& machine() { return *machine_; }
  RuntimeSystem& scheduler() { return *runtime_; }
  Simulator& simulator() { return sim_; }

  // --- buffers (PGAS scoping extension) ---
  EcoBuffer create_buffer(Bytes size, Distribution scope,
                          std::optional<WorkerCoord> anchor = std::nullopt);
  void write_buffer(EcoBuffer& buffer, Bytes offset,
                    std::span<const std::uint8_t> data);
  void read_buffer(const EcoBuffer& buffer, Bytes offset,
                   std::span<std::uint8_t> out) const;

  // --- kernels (HW-synthesisable functions extension) ---
  /// Runs HLS design-space exploration and registers the kernel with the
  /// runtime scheduler.
  EcoKernel create_kernel(const KernelIR& ir, std::size_t max_variants = 3);

  // --- distributed command queue ---
  /// Launch `total_items` work items over the buffer: one task per buffer
  /// partition (items split proportionally), homed at the partition owner.
  EcoEvent enqueue(EcoKernel& kernel, EcoBuffer& buffer,
                   std::uint64_t total_items, SimTime release = 0);

  /// Block until all enqueued work completes (runs the simulation).
  void finish() { runtime_->run(); }

  RuntimeStats stats() const { return runtime_->stats(); }

 private:
  TaskId next_task_id_ = 1;
  Simulator sim_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<RuntimeSystem> runtime_;
  std::unique_ptr<TopologyAllocator> allocator_;
};

}  // namespace ecoscale
