// CPU cluster model: a few ARM-class cores per Worker (paper Figure 4).
//
// Cores are serially reusable timelines; software tasks reserve
// cycles-at-clock. Context switches cost a fixed penalty, enabling the
// time-sharing comparison against coarse-grain fabric reconfiguration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/energy.h"
#include "common/units.h"
#include "sim/timeline.h"

namespace ecoscale {

namespace detail {
/// Energy category of CPU execution, interned once.
inline CounterId cpu_dynamic_energy_id() {
  static const CounterId id = CounterRegistry::intern("cpu.dynamic");
  return id;
}
}  // namespace detail

struct CpuConfig {
  std::size_t cores = 4;
  double clock_ghz = 1.2;
  SimDuration context_switch = microseconds(3);
  double pj_per_cycle = 120.0;  // ARMv8-class core, dynamic
};

struct CpuExecution {
  std::size_t core = 0;
  SimTime start = 0;
  SimTime finish = 0;
  Picojoules energy = 0.0;
};

class CpuCluster {
 public:
  explicit CpuCluster(std::string name, CpuConfig config = {})
      : name_(std::move(name)), config_(config) {
    ECO_CHECK(config_.cores >= 1 && config_.clock_ghz > 0);
    for (std::size_t i = 0; i < config_.cores; ++i) {
      cores_.emplace_back(name_ + ".core" + std::to_string(i));
      last_task_.push_back(kNoTask);
    }
  }

  SimDuration cycles_to_time(double cycles) const {
    return static_cast<SimDuration>(cycles * 1000.0 / config_.clock_ghz);
  }

  /// Run `cycles` of work for `task_id` on the earliest-available core,
  /// charging a context switch if the core last ran a different task.
  CpuExecution execute(SimTime ready, double cycles,
                       std::uint64_t task_id = kNoTask) {
    ECO_CHECK(cycles >= 0);
    // Earliest-available core; deterministic tie-break by index.
    std::size_t best = 0;
    for (std::size_t i = 1; i < cores_.size(); ++i) {
      if (cores_[i].next_free() < cores_[best].next_free()) best = i;
    }
    SimDuration service = cycles_to_time(cycles);
    if (task_id != kNoTask && last_task_[best] != kNoTask &&
        last_task_[best] != task_id) {
      service += config_.context_switch;
      ++context_switches_;
    }
    last_task_[best] = task_id;
    const SimTime start = cores_[best].reserve(ready, service);
    CpuExecution e;
    e.core = best;
    e.start = start;
    e.finish = start + service;
    e.energy = config_.pj_per_cycle * cycles;
    energy_.charge(detail::cpu_dynamic_energy_id(), e.energy);
    return e;
  }

  SimTime earliest_free() const {
    SimTime best = cores_.front().next_free();
    for (const auto& c : cores_) best = std::min(best, c.next_free());
    return best;
  }

  std::size_t core_count() const { return cores_.size(); }
  std::uint64_t context_switches() const { return context_switches_; }
  const EnergyMeter& energy() const { return energy_; }
  const CpuConfig& config() const { return config_; }
  SimDuration busy_time() const {
    SimDuration total = 0;
    for (const auto& c : cores_) total += c.busy_time();
    return total;
  }

  static constexpr std::uint64_t kNoTask = ~0ull;

 private:
  std::string name_;
  CpuConfig config_;
  std::vector<Timeline> cores_;
  std::vector<std::uint64_t> last_task_;
  std::uint64_t context_switches_ = 0;
  EnergyMeter energy_;
};

}  // namespace ecoscale
