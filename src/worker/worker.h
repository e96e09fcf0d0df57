// The ECOSCALE Worker node (paper Figure 4, right side).
//
// A Worker bundles: a CPU cluster, a reconfigurable block (fabric +
// reconfiguration manager), a dual-stage SMMU, and per-accelerator
// virtualization blocks. It provides the two execution paths the runtime
// chooses between — software on the local CPU, or hardware on a (local or
// remote) reconfigurable block — with full latency/energy accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "address/smmu.h"
#include "common/energy.h"
#include "fabric/reconfig.h"
#include "hls/ir.h"
#include "worker/cpu.h"
#include "worker/virtualization.h"

namespace ecoscale {

namespace detail {
/// Energy categories a Worker charges per execution, interned once.
struct WorkerEnergyIds {
  CounterId sw = CounterRegistry::intern("worker.sw");
  CounterId hw = CounterRegistry::intern("worker.hw");
  CounterId hw_mem = CounterRegistry::intern("worker.hw_mem");
};
inline const WorkerEnergyIds& worker_energy_ids() {
  static const WorkerEnergyIds ids;
  return ids;
}
}  // namespace detail

struct WorkerConfig {
  CpuConfig cpu;
  ReconfigConfig fabric;
  SmmuConfig smmu;
  SharingMode sharing = SharingMode::kPipelined;
  /// Accelerator-side memory streaming bandwidth for kernel I/O.
  Bandwidth accel_mem_bw = Bandwidth::from_gib_per_s(6.4);
  double accel_mem_pj_per_byte = 4.0;  // local coherent-port access
};

struct ExecResult {
  SimTime start = 0;
  SimTime finish = 0;
  Picojoules energy = 0.0;
  bool hardware = false;
  bool reconfigured = false;
};

class Worker {
 public:
  Worker(WorkerCoord coord, WorkerConfig config = {})
      : coord_(coord),
        config_(config),
        cpu_(coord.str() + ".cpu", config.cpu),
        fabric_(coord.str() + ".fabric", config.fabric),
        smmu_(config.smmu) {
    fabric_.set_trace_lane(obs::Lane{coord.node, coord.worker});
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  WorkerCoord coord() const { return coord_; }

  /// Execute `items` iterations of `kernel` in software.
  ExecResult run_software(const KernelIR& kernel, std::uint64_t items,
                          SimTime ready, std::uint64_t task_id = 0) {
    const double cycles =
        kernel.cpu_cycles_per_item * static_cast<double>(items);
    const auto e = cpu_.execute(ready, cycles, task_id);
    ExecResult r;
    r.start = e.start;
    r.finish = e.finish;
    r.energy = e.energy;
    r.hardware = false;
    energy_.charge(detail::worker_energy_ids().sw, e.energy);
    return r;
  }

  /// Execute `items` through a hardware module on the local fabric,
  /// loading it first if needed. Includes data streaming time on the
  /// accelerator's memory port. Returns nullopt if the module cannot fit.
  std::optional<ExecResult> run_hardware(const AcceleratorModule& module,
                                         std::uint64_t items, SimTime ready,
                                         VirtualizationBlock::ContextOrdinal
                                             ctx = 0) {
    const auto load = fabric_.ensure_loaded(module, ready);
    if (!load) return std::nullopt;
    VirtualizationBlock& vb = block_for(module, load->region);
    const SimTime go = std::max(ready, load->ready);
    // Data streaming overlaps the pipeline after a one-burst head start;
    // the effective start is bounded by memory bandwidth for the input set.
    const Bytes moved =
        items * (module.bytes_in_per_item + module.bytes_out_per_item);
    const SimDuration stream = config_.accel_mem_bw.transfer_time(moved);
    const auto call = vb.call(ctx, items, go);
    ExecResult r;
    r.start = ready;  // duration includes configuration and pipeline waits
    // Compute and streaming overlap; the call completes when the slower
    // of pipeline drain and data movement finishes.
    r.finish = std::max(call.finish, call.start + stream);
    fabric_.set_busy_until(load->region, r.finish);
    r.energy = call.energy +
               config_.accel_mem_pj_per_byte * static_cast<double>(moved);
    r.hardware = true;
    r.reconfigured = load->reconfigured;
    energy_.charge(detail::worker_energy_ids().hw, call.energy);
    energy_.charge(detail::worker_energy_ids().hw_mem,
                   config_.accel_mem_pj_per_byte * static_cast<double>(moved));
    return r;
  }

  CpuCluster& cpu() { return cpu_; }
  ReconfigManager& fabric() { return fabric_; }
  Smmu& smmu() { return smmu_; }
  const EnergyMeter& energy() const { return energy_; }
  const WorkerConfig& config() const { return config_; }

  /// Virtualization block for a loaded module, if it exists.
  VirtualizationBlock* find_block(KernelId kernel) {
    auto it = blocks_.find(kernel);
    return it == blocks_.end() ? nullptr : it->second.get();
  }

 private:
  VirtualizationBlock& block_for(const AcceleratorModule& module,
                                 RegionId region) {
    (void)region;
    auto it = blocks_.find(module.kernel);
    if (it == blocks_.end()) {
      it = blocks_
               .emplace(module.kernel,
                        std::make_unique<VirtualizationBlock>(
                            coord_.str() + "." + module.name, module,
                            config_.sharing))
               .first;
    }
    return *it->second;
  }

  WorkerCoord coord_;
  WorkerConfig config_;
  CpuCluster cpu_;
  ReconfigManager fabric_;
  Smmu smmu_;
  std::map<KernelId, std::unique_ptr<VirtualizationBlock>> blocks_;
  EnergyMeter energy_;
};

}  // namespace ecoscale
