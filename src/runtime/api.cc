#include "runtime/api.h"

#include <algorithm>

#include "common/check.h"

namespace ecoscale {

EcoRuntime::EcoRuntime(MachineConfig machine_config,
                       RuntimeConfig runtime_config) {
  machine_ = std::make_unique<Machine>(machine_config);
  runtime_ = std::make_unique<RuntimeSystem>(*machine_, sim_, runtime_config);
  allocator_ = std::make_unique<TopologyAllocator>(machine_->pgas());
}

EcoBuffer EcoRuntime::create_buffer(Bytes size, Distribution scope,
                                    std::optional<WorkerCoord> anchor) {
  std::vector<WorkerCoord> workers;
  if (scope == Distribution::kLocal) {
    workers.push_back(anchor.value_or(WorkerCoord{0, 0}));
  } else {
    for (std::size_t i = 0; i < machine_->worker_count(); ++i) {
      workers.push_back(machine_->pgas().coord(i));
    }
  }
  EcoBuffer buffer;
  buffer.buffer_ = allocator_->allocate(size, scope, workers);
  return buffer;
}

void EcoRuntime::write_buffer(EcoBuffer& buffer, Bytes offset,
                              std::span<const std::uint8_t> data) {
  ECO_CHECK(offset + data.size() <= buffer.size());
  // Respect partition boundaries: write each covered range to its home.
  Bytes done = 0;
  while (done < data.size()) {
    const auto& part = buffer.layout().partition_of(offset + done);
    const Bytes in_part = offset + done - part.offset;
    const Bytes chunk =
        std::min<Bytes>(part.size - in_part, data.size() - done);
    machine_->pgas().write_bytes(part.base + in_part,
                                 data.subspan(done, chunk));
    done += chunk;
  }
}

void EcoRuntime::read_buffer(const EcoBuffer& buffer, Bytes offset,
                             std::span<std::uint8_t> out) const {
  ECO_CHECK(offset + out.size() <= buffer.size());
  Bytes done = 0;
  while (done < out.size()) {
    const auto& part = buffer.layout().partition_of(offset + done);
    const Bytes in_part = offset + done - part.offset;
    const Bytes chunk =
        std::min<Bytes>(part.size - in_part, out.size() - done);
    machine_->pgas().read_bytes(part.base + in_part,
                                out.subspan(done, chunk));
    done += chunk;
  }
}

EcoKernel EcoRuntime::create_kernel(const KernelIR& ir,
                                    std::size_t max_variants) {
  EcoKernel kernel;
  kernel.ir_ = ir;
  kernel.variants_ = emit_variants(
      ir, max_variants, DseLimits{}, HlsTechnology{},
      machine_->config().worker.fabric.fabric_height);
  runtime_->register_kernel(ir, kernel.variants_);
  return kernel;
}

EcoEvent EcoRuntime::enqueue(EcoKernel& kernel, EcoBuffer& buffer,
                             std::uint64_t total_items, SimTime release) {
  ECO_CHECK(total_items > 0);
  EcoEvent event;
  const auto& parts = buffer.layout().partitions();
  // Split items proportionally to partition sizes; run the functional body
  // per partition so results land where the timing model says they land.
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto& part = parts[i];
    std::uint64_t items;
    if (i + 1 == parts.size()) {
      items = total_items - assigned;
    } else {
      items = total_items * part.size / buffer.size();
    }
    if (items == 0) continue;
    assigned += items;
    Task task;
    task.id = next_task_id_++;
    task.kernel = kernel.ir_.id;
    task.items = items;
    task.features.items = static_cast<double>(items);
    task.features.bytes = static_cast<double>(
        items * (kernel.ir_.bytes_in + kernel.ir_.bytes_out));
    task.home = part.home;
    task.release = release;
    runtime_->submit(task);
    event.tasks.push_back(task.id);
    if (kernel.body_) {
      std::vector<std::uint8_t> data(part.size);
      machine_->pgas().read_bytes(part.base, data);
      kernel.body_(data, items);
      machine_->pgas().write_bytes(part.base, data);
    }
  }
  return event;
}

}  // namespace ecoscale
