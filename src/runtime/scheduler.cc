#include "runtime/scheduler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {
/// Task-lifetime trace names (ready -> dispatch -> complete, plus the
/// migration/failure instants), interned once per process.
struct TaskTraceNames {
  CounterId queue = CounterRegistry::intern("task.queue");
  CounterId exec = CounterRegistry::intern("task.exec");
  CounterId spill = CounterRegistry::intern("task.spill");
  CounterId forward = CounterRegistry::intern("task.forward");
  CounterId fail = CounterRegistry::intern("task.fail");
  CounterId detect = CounterRegistry::intern("fault.detect");
  CounterId failover = CounterRegistry::intern("task.failover");
  CounterId shed = CounterRegistry::intern("task.shed");
  CounterId batch = CounterRegistry::intern("task.batch");
};
[[maybe_unused]] const TaskTraceNames& task_trace_names() {
  static const TaskTraceNames names;
  return names;
}

/// Execution lane of flat worker `w`: pid = node, tid = worker-in-node.
[[maybe_unused]] obs::Lane worker_lane(std::size_t w, std::size_t per_node) {
  return obs::Lane{static_cast<std::uint16_t>(w / per_node),
                   static_cast<std::uint16_t>(w % per_node)};
}

/// Queue-wait lane of flat worker `w` (queue spans overlap, so they get a
/// sibling lane instead of breaking the execution lane's nesting).
[[maybe_unused]] obs::Lane queue_lane(std::size_t w, std::size_t per_node) {
  return obs::Lane{
      static_cast<std::uint16_t>(w / per_node),
      static_cast<std::uint16_t>(obs::kQueueTidBase + w % per_node)};
}
}  // namespace

RuntimeSystem::RuntimeSystem(Machine& machine, Simulator& sim,
                             RuntimeConfig config)
    : machine_(machine),
      sim_(sim),
      config_(config),
      workers_(machine.worker_count()) {
  if (config_.enable_daemon) {
    daemons_.reserve(machine_.worker_count());
    next_daemon_tick_.assign(machine_.worker_count(), config_.daemon.period);
    for (std::size_t w = 0; w < machine_.worker_count(); ++w) {
      daemons_.push_back(std::make_unique<ReconfigDaemon>(
          machine_.worker(w).fabric(), config_.daemon));
    }
  }
  if (config_.faults.enabled) {
    FaultInjector::Callbacks cb;
    cb.on_worker_down = [this](std::size_t w, SimTime at) {
      on_worker_down(w, at);
    };
    cb.on_worker_up = [this](std::size_t w, SimTime at) {
      on_worker_up(w, at);
    };
    cb.active = [this] { return pending_ > 0; };
    injector_ = std::make_unique<FaultInjector>(sim_, machine_,
                                                config_.faults,
                                                std::move(cb));
    injector_->arm();
  }
}

void RuntimeSystem::register_kernel(const KernelIR& kernel,
                                    std::vector<AcceleratorModule> variants) {
  ECO_CHECK_MSG(!kernels_.contains(kernel.id), "kernel registered twice");
  kernels_[kernel.id] = kernel;
  // Keep variants sorted by area descending so "largest that fits" is the
  // first match.
  std::sort(variants.begin(), variants.end(),
            [](const AcceleratorModule& a, const AcceleratorModule& b) {
              return a.shape.slots() > b.shape.slots();
            });
  variants_[kernel.id] = std::move(variants);
  if (config_.enable_daemon) {
    // The daemon prefetches the variant the scheduler would pick on an
    // empty fabric.
    for (std::size_t w = 0; w < machine_.worker_count(); ++w) {
      if (const AcceleratorModule* preferred = choose_variant(kernel.id, w)) {
        daemons_[w]->register_module(*preferred);
      }
    }
  }
}

void RuntimeSystem::submit(const Task& task) {
  ECO_CHECK_MSG(kernels_.contains(task.kernel), "unregistered kernel");
  ++pending_;
  if (config_.faults.enabled) ensure_monitor();
  sim_.schedule_at(task.release, [this, task] {
    const std::size_t home = machine_.pgas().flat(task.home);
    const std::size_t target = route(task);
    if (target == home) {
      arrive(target, QueuedTask{task, /*forwarded=*/false}, /*spill_hops=*/0);
      return;
    }
    // Forwarding ships the task closure to the chosen worker.
    ECO_TRACE_INSTANT(obs::Cat::kRuntime, task_trace_names().forward,
                      worker_lane(target, machine_.workers_per_node()),
                      sim_.now(), task.id);
    const auto mig = machine_.pgas().migrate_task(
        task.home, machine_.pgas().coord(target), sim_.now());
    sim_.schedule_at(mig.finish, [this, target, task] {
      // Routed placements (centralized/poll) are final: max hops reached.
      arrive(target, QueuedTask{task, /*forwarded=*/true}, /*spill_hops=*/1000);
    });
  });
}

std::size_t RuntimeSystem::route(const Task& task) {
  const std::size_t home = machine_.pgas().flat(task.home);
  const std::size_t total = machine_.worker_count();
  auto depth = [&](std::size_t w) {
    return workers_[w].queue.size() + (workers_[w].busy ? 1 : 0);
  };
  switch (config_.distribution) {
    case DistributionPolicy::kHomeOnly:
      return home;
    case DistributionPolicy::kLazyLocal:
      // Lazy scheduling decides at *arrival* against the local queue only
      // (see arrive()); submission always targets the home worker.
      return home;
    case DistributionPolicy::kCentralized: {
      // Every task consults the global dispatcher: request + response
      // messages plus serialised dispatcher service. Workers the runtime
      // has detected as dead are never placed on.
      monitor_messages_ += 2;
      dispatcher_.reserve(sim_.now(), config_.dispatcher_service);
      std::size_t best = home;
      for (std::size_t w = 0; w < total; ++w) {
        if (workers_[w].known_down) continue;
        if (workers_[best].known_down || depth(w) < depth(best)) best = w;
      }
      return best;
    }
    case DistributionPolicy::kPollLeastLoaded: {
      // Poll every worker for its queue depth before placing.
      monitor_messages_ += 2 * (total - 1);
      std::size_t best = home;
      for (std::size_t w = 0; w < total; ++w) {
        if (workers_[w].known_down) continue;
        if (workers_[best].known_down || depth(w) < depth(best)) best = w;
      }
      return best;
    }
  }
  return home;
}

std::size_t RuntimeSystem::spill_target(std::size_t worker, const Task& task,
                                        int hops) const {
  const std::size_t per_node = machine_.workers_per_node();
  const std::size_t total = machine_.worker_count();
  if (hops % 2 == 0 && per_node > 1) {
    // Sideways: round-robin neighbour inside the node.
    const std::size_t node_base = (worker / per_node) * per_node;
    const std::size_t offset =
        1 + static_cast<std::size_t>((task.id + static_cast<TaskId>(hops)) %
                                     (per_node - 1));
    return node_base + (worker - node_base + offset) % per_node;
  }
  // Escalate: the same-position worker one node over.
  return (worker + per_node) % total;
}

void RuntimeSystem::arrive(std::size_t worker, QueuedTask queued,
                           int spill_hops) {
  const Task& task = queued.task;
  // A worker the runtime has detected as dead takes no new arrivals:
  // redirect to the least-loaded believed-alive worker. (Crashes the
  // monitor has not yet detected still receive tasks — that is the
  // detection latency the recovery machinery exists to absorb.)
  if (workers_[worker].known_down) {
    const std::size_t target = survivor_for(worker);
    if (target != worker) worker = target;
  }
  // Admission control: past the configured depth the task is shed, not
  // queued — bounded queues are what keep tail latency bounded under
  // overload. The shed is final (no retry inside the runtime); the shed
  // handler lets the application fail the request upward.
  if (config_.admission_limit > 0) {
    const std::size_t depth =
        workers_[worker].queue.size() + (workers_[worker].busy ? 1 : 0);
    if (depth >= config_.admission_limit) {
      ++shed_tasks_;
      --pending_;
      ECO_TRACE_INSTANT(obs::Cat::kRuntime, task_trace_names().shed,
                        queue_lane(worker, machine_.workers_per_node()),
                        sim_.now(), task.id);
      if (shed_handler_) shed_handler_(task, sim_.now());
      return;
    }
  }
  // Lazy scheduling: the only status consulted is this worker's own queue.
  // A deep queue diffuses the task onward (bounded cascade), first to a
  // node neighbour, then across the node boundary.
  if (config_.distribution == DistributionPolicy::kLazyLocal &&
      spill_hops < static_cast<int>(config_.max_spill_hops) &&
      machine_.worker_count() > 1) {
    const std::size_t depth =
        workers_[worker].queue.size() + (workers_[worker].busy ? 1 : 0);
    if (depth >= config_.spill_depth) {
      const std::size_t target = spill_target(worker, task, spill_hops);
      ++monitor_messages_;  // one forward message, zero polling
      ECO_TRACE_INSTANT(obs::Cat::kRuntime, task_trace_names().spill,
                        worker_lane(worker, machine_.workers_per_node()),
                        sim_.now(), task.id);
      const auto mig = machine_.pgas().migrate_task(
          machine_.pgas().coord(worker), machine_.pgas().coord(target),
          sim_.now());
      sim_.schedule_at(mig.finish, [this, target, task, spill_hops] {
        arrive(target, QueuedTask{task, /*forwarded=*/true}, spill_hops + 1);
      });
      return;
    }
  }
  workers_[worker].queue.push_back(std::move(queued));
  if (!workers_[worker].busy) dispatch(worker);
}

const AcceleratorModule* RuntimeSystem::choose_variant(
    KernelId kernel, std::size_t worker) const {
  auto it = variants_.find(kernel);
  if (it == variants_.end() || it->second.empty()) return nullptr;
  const auto& fabric = machine_.worker(worker).fabric();
  // Already loaded? Stick with whatever variant is resident.
  if (fabric.is_loaded(kernel)) return &it->second.front();
  for (const auto& v : it->second) {
    if (v.shape.width <= fabric.floorplan().width() &&
        v.shape.height <= fabric.floorplan().height()) {
      return &v;
    }
  }
  return nullptr;
}

DeviceClass RuntimeSystem::place(const Task& task, std::size_t worker) {
  const KernelIR& kernel = kernels_.at(task.kernel);
  const bool hw_possible = choose_variant(task.kernel, worker) != nullptr;
  switch (config_.placement) {
    case PlacementPolicy::kAlwaysSoftware:
      return DeviceClass::kCpu;
    case PlacementPolicy::kAlwaysHardware:
      return hw_possible ? DeviceClass::kLocalFabric : DeviceClass::kCpu;
    case PlacementPolicy::kSizeThreshold:
      return (hw_possible && task.items >= config_.size_threshold)
                 ? DeviceClass::kLocalFabric
                 : DeviceClass::kCpu;
    case PlacementPolicy::kModelBased: {
      auto score = [&](const Prediction& p) {
        switch (config_.objective) {
          case Objective::kTime:
            return p.time_ns;
          case Objective::kEnergy:
            return p.energy_pj;
          case Objective::kEnergyDelay:
            return p.time_ns * p.energy_pj;
        }
        return p.time_ns;
      };
      const auto cpu =
          predictor_.predict(kernel, DeviceClass::kCpu, task.features);
      double best = score(cpu);
      DeviceClass choice = DeviceClass::kCpu;
      if (hw_possible) {
        const auto local = predictor_.predict(
            kernel, DeviceClass::kLocalFabric, task.features);
        if (score(local) < best) {
          best = score(local);
          choice = DeviceClass::kLocalFabric;
        }
        if (config_.share_fabric) {
          const auto remote = predictor_.predict(
              kernel, DeviceClass::kRemoteFabric, task.features);
          if (score(remote) < best) {
            best = score(remote);
            choice = DeviceClass::kRemoteFabric;
          }
        }
      }
      return choice;
    }
  }
  return DeviceClass::kCpu;
}

void RuntimeSystem::dispatch(std::size_t worker) {
  WorkerState& state = workers_[worker];
  if (state.busy || state.queue.empty()) return;
  // Request batching: opening a batch pays dispatch_overhead once, then
  // up to batch_size queued tasks dispatch back to back without re-paying
  // it. The open is epoch-guarded like completions: a crash bumps the
  // epoch and orphans the pending open.
  if (config_.dispatch_overhead > 0 && state.batch_left == 0) {
    state.batch_left = std::min(std::max<std::size_t>(config_.batch_size, 1),
                                state.queue.size());
    state.busy = true;
    const std::uint64_t epoch = ++state.epoch;
    ECO_TRACE_INSTANT(obs::Cat::kRuntime, task_trace_names().batch,
                      queue_lane(worker, machine_.workers_per_node()),
                      sim_.now(),
                      static_cast<std::uint32_t>(state.batch_left));
    sim_.schedule_at(sim_.now() + config_.dispatch_overhead,
                     [this, worker, epoch] {
                       WorkerState& st = workers_[worker];
                       if (st.epoch != epoch) return;  // crashed mid-open
                       st.busy = false;
                       dispatch(worker);
                     });
    return;
  }
  if (state.batch_left > 0) --state.batch_left;
  const bool forwarded = state.queue.front().forwarded;
  Task task = std::move(state.queue.front().task);
  state.queue.pop_front();
  state.busy = true;

  const SimTime now = sim_.now();
  const KernelIR& kernel = kernels_.at(task.kernel);
  if (config_.enable_daemon) {
    // Feed the History scores and tick opportunistically (the daemon has
    // no thread of its own; dispatch points are its scheduling quanta).
    daemons_[worker]->record_call(task.kernel);
    while (next_daemon_tick_[worker] <= now) {
      daemons_[worker]->tick(next_daemon_tick_[worker]);
      next_daemon_tick_[worker] += config_.daemon.period;
    }
  }
  DeviceClass device = place(task, worker);

  // Ready -> dispatch (queue wait) as a complete span on the worker's
  // queue lane; dispatch -> complete as a begin/end pair on its execution
  // lane, closed by the completion event below. A task lost to failure
  // injection never closes its begin — the exporter repairs it, and the
  // orphan is itself the signal (the span runs to the end of the window).
  const std::size_t per_node = machine_.workers_per_node();
  ECO_TRACE_SPAN(obs::Cat::kRuntime, task_trace_names().queue,
                 queue_lane(worker, per_node), task.release, now, task.id);
  ECO_TRACE_BEGIN(obs::Cat::kRuntime, task_trace_names().exec,
                  worker_lane(worker, per_node), now);

  TaskResult result;
  result.id = task.id;
  result.release = task.release;
  result.started = now;
  result.executed_on = worker;
  result.forwarded = forwarded;

  SimTime finish = now;
  if (device == DeviceClass::kCpu) {
    const auto e =
        machine_.worker(worker).run_software(kernel, task.items, now, task.id);
    finish = e.finish;
    result.energy = e.energy;
    result.device = DeviceClass::kCpu;
  } else {
    const AcceleratorModule* variant = choose_variant(task.kernel, worker);
    ECO_CHECK(variant != nullptr);
    const auto node = static_cast<NodeId>(worker / per_node);
    const std::size_t in_node = worker % per_node;
    const DispatchPolicy pool_policy =
        (config_.share_fabric && device == DeviceClass::kRemoteFabric)
            ? DispatchPolicy::kLeastLoaded
            : DispatchPolicy::kLocalOnly;
    const auto inv = machine_.pool(node).invoke(in_node, *variant,
                                                task.items, now, pool_policy);
    if (inv) {
      finish = inv->finish;
      result.energy = inv->energy;
      result.reconfigured = inv->reconfigured;
      result.device = inv->remote ? DeviceClass::kRemoteFabric
                                  : DeviceClass::kLocalFabric;
      result.executed_on =
          static_cast<std::size_t>(node) * per_node + inv->executed_on;
    } else {
      // Could not place in hardware anywhere: software fallback.
      const auto e = machine_.worker(worker).run_software(kernel, task.items,
                                                          now, task.id);
      finish = e.finish;
      result.energy = e.energy;
      result.device = DeviceClass::kCpu;
    }
  }
  result.finished = finish;

  // Live fault path: remember the attempt so a crash can price and
  // re-queue it, and tag the completion with an epoch — a crash bumps the
  // epoch, turning the (uncancellable) completion event into a no-op.
  const std::uint64_t epoch = ++state.epoch;
  if (config_.faults.enabled) {
    state.in_flight = true;
    state.current = QueuedTask{task, forwarded};
    state.exec_start = now;
    state.exec_finish = finish;
    state.exec_energy = result.energy;
  }

  if (completion_handler_) {
    // The handler needs the task (payload) alongside the result; the
    // fatter capture only exists when a handler is installed.
    sim_.schedule_at(finish, [this, worker, task, result, epoch] {
      WorkerState& st = workers_[worker];
      if (st.epoch != epoch) return;  // attempt destroyed by a crash
      ECO_TRACE_END(obs::Cat::kRuntime, task_trace_names().exec,
                    worker_lane(worker, machine_.workers_per_node()),
                    sim_.now());
      st.in_flight = false;
      results_.push_back(result);
      --pending_;
      st.busy = false;
      completion_handler_(task, result);
      dispatch(worker);
    });
  } else {
    sim_.schedule_at(finish, [this, worker, result, epoch] {
      WorkerState& st = workers_[worker];
      if (st.epoch != epoch) return;  // attempt destroyed by a crash
      ECO_TRACE_END(obs::Cat::kRuntime, task_trace_names().exec,
                    worker_lane(worker, machine_.workers_per_node()),
                    sim_.now());
      st.in_flight = false;
      results_.push_back(result);
      --pending_;
      st.busy = false;
      dispatch(worker);
    });
  }

  // Observe immediately (the measurement is deterministic): prequential
  // training keeps the model-based policy causal — the prediction above
  // used only earlier observations.
  HistoryRecord record;
  record.kernel = task.kernel;
  record.device = result.device;
  record.features = task.features;
  record.time_ns = to_nanoseconds(finish - now);
  record.energy_pj = result.energy;
  predictor_.observe(record);
}

// --- live fault path --------------------------------------------------------

void RuntimeSystem::on_worker_down(std::size_t worker, SimTime at) {
  WorkerState& state = workers_[worker];
  state.busy = true;   // nothing dispatches while the worker is down
  ++state.epoch;       // orphan any scheduled completion of this worker
  state.batch_left = 0;  // the open batch dies with the worker
  state.pending_detect = true;
  state.crash_at = at;
  if (state.in_flight) {
    // The running attempt dies with the worker. Its consumed resources are
    // real: charge partial progress in proportion to elapsed runtime. The
    // victim task stays parked in `current` (in_flight marks it) until the
    // heartbeat monitor detects the crash — or repair beats detection.
    const SimDuration ran = at - state.exec_start;
    const SimDuration full = state.exec_finish - state.exec_start;
    if (full > 0) {
      wasted_energy_ += state.exec_energy *
                        (static_cast<double>(ran) / static_cast<double>(full));
    }
    ++failures_;
    ECO_TRACE_INSTANT(obs::Cat::kRuntime, task_trace_names().fail,
                      worker_lane(worker, machine_.workers_per_node()), at,
                      state.current.task.id);
  }
}

void RuntimeSystem::on_worker_up(std::size_t worker, SimTime at) {
  WorkerState& state = workers_[worker];
  state.busy = false;
  state.known_down = false;
  if (state.pending_detect) {
    // Repaired before the monitor ever noticed: the crash stays invisible
    // to the rest of the machine and the victim re-executes locally.
    state.pending_detect = false;
    if (state.in_flight) {
      state.in_flight = false;
      ++reexecutions_;
      QueuedTask victim = std::move(state.current);
      ECO_TRACE_INSTANT(obs::Cat::kFailover, task_trace_names().failover,
                        worker_lane(worker, machine_.workers_per_node()), at,
                        victim.task.id);
      arrive(worker, std::move(victim), /*spill_hops=*/1000);
      return;  // arrive() already dispatched
    }
  }
  dispatch(worker);
}

void RuntimeSystem::ensure_monitor() {
  if (monitor_running_) return;
  monitor_running_ = true;
  sim_.schedule_at(sim_.now() + config_.faults.heartbeat_period,
                   [this] { monitor_tick(); });
}

void RuntimeSystem::monitor_tick() {
  if (pending_ == 0) {
    // Workload drained: stop ticking so the event queue can empty. A later
    // submit() re-arms via ensure_monitor().
    monitor_running_ = false;
    return;
  }
  const SimTime now = sim_.now();
  monitor_messages_ += machine_.worker_count();  // one heartbeat probe each
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& state = workers_[w];
    if (!state.pending_detect ||
        now < state.crash_at + config_.faults.detect_timeout) {
      continue;
    }
    if (machine_.health().up(w)) continue;  // repair wins (same-tick race)
    // Declared dead: this is the moment the *runtime* learns of the crash.
    state.pending_detect = false;
    state.known_down = true;
    ++detections_;
    ECO_TRACE_INSTANT(obs::Cat::kDetect, task_trace_names().detect,
                      worker_lane(w, machine_.workers_per_node()), now,
                      static_cast<std::uint32_t>(w));
    // Re-execute the killed in-flight attempt on a survivor. The record
    // keeps the full causal chain (crash -> detection -> re-queue) so
    // tests can assert no re-execution starts before its detection point.
    // When the runtime believes *nobody* survives (every worker down at
    // once), work stays parked on this worker's own queue — repair will
    // re-dispatch it; shipping it to another dead worker would just
    // bounce it back here forever.
    if (state.in_flight) {
      state.in_flight = false;
      QueuedTask victim = std::move(state.current);
      const std::size_t target = survivor_for(w);
      ++reexecutions_;
      if (target == w) {
        state.queue.push_front(std::move(victim));
      } else {
        ++task_failovers_;
        recovery_log_.push_back(
            RecoveryRecord{victim.task.id, w, target, state.crash_at, now});
        ECO_TRACE_INSTANT(obs::Cat::kFailover, task_trace_names().failover,
                          worker_lane(target, machine_.workers_per_node()),
                          now, victim.task.id);
        arrive(target, std::move(victim), /*spill_hops=*/1000);
      }
    }
  }
  // Tasks still queued (never started) on any believed-dead worker spill
  // to survivors. This runs every tick, not just at detection: work can
  // strand when detection found no survivor, and must move out as soon as
  // the runtime believes somebody is alive again.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& state = workers_[w];
    if (!state.known_down) continue;
    while (!state.queue.empty()) {
      const std::size_t target = survivor_for(w);
      if (target == w) break;  // no believed-alive survivor: wait for repair
      QueuedTask queued = std::move(state.queue.front());
      state.queue.pop_front();
      ++task_failovers_;
      ECO_TRACE_INSTANT(obs::Cat::kFailover, task_trace_names().failover,
                        worker_lane(target, machine_.workers_per_node()), now,
                        queued.task.id);
      arrive(target, std::move(queued), /*spill_hops=*/1000);
    }
  }
  sim_.schedule_at(now + config_.faults.heartbeat_period,
                   [this] { monitor_tick(); });
}

std::size_t RuntimeSystem::survivor_for(std::size_t avoid) const {
  std::size_t best = avoid;
  std::size_t best_depth = ~std::size_t{0};
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (w == avoid || workers_[w].known_down) continue;
    const std::size_t d =
        workers_[w].queue.size() + (workers_[w].busy ? 1 : 0);
    if (d < best_depth) {
      best_depth = d;
      best = w;
    }
  }
  return best;
}

void RuntimeSystem::run() {
  sim_.run();
  ECO_CHECK_MSG(pending_ == 0, "runtime finished with pending tasks");
}

RuntimeStats RuntimeSystem::stats() const {
  RuntimeStats s;
  for (const auto& r : results_) {
    s.makespan = std::max(s.makespan, r.finished);
    s.energy += r.energy;
    switch (r.device) {
      case DeviceClass::kCpu:
        ++s.sw_tasks;
        break;
      case DeviceClass::kLocalFabric:
        ++s.hw_tasks;
        break;
      case DeviceClass::kRemoteFabric:
        ++s.hw_tasks;
        ++s.remote_hw_tasks;
        break;
    }
    if (r.forwarded) ++s.forwarded_tasks;
    s.queue_wait_ns.add(to_nanoseconds(r.queue_wait()));
    s.turnaround_ns.add(to_nanoseconds(r.turnaround()));
  }
  s.monitor_messages = monitor_messages_;
  s.shed_tasks = shed_tasks_;
  s.worker_failures = failures_;
  s.reexecutions = reexecutions_;
  s.wasted_energy = wasted_energy_;
  s.detections = detections_;
  s.task_failovers = task_failovers_;
  return s;
}

}  // namespace ecoscale
