#include "unilogic/pool.h"

#include <algorithm>

#include "obs/trace.h"

namespace ecoscale {

namespace {
/// Accelerator-sharing trace and energy names, interned once per process.
struct PoolTraceNames {
  CounterId queue = CounterRegistry::intern("unilogic.queue");
  CounterId exec = CounterRegistry::intern("unilogic.exec");
  CounterId doorbell = CounterRegistry::intern("unilogic.doorbell");
  CounterId retry = CounterRegistry::intern("unilogic.retry");
  CounterId fallback = CounterRegistry::intern("unilogic.fallback");
  CounterId wasted = CounterRegistry::intern("unilogic.wasted");
  CounterId remote = CounterRegistry::intern("unilogic.remote");
  CounterId local = CounterRegistry::intern("unilogic.local");
};
[[maybe_unused]] const PoolTraceNames& pool_trace_names() {
  static const PoolTraceNames names;
  return names;
}
}  // namespace

SimTime UnilogicPool::estimate_start(std::size_t w,
                                     const AcceleratorModule& module,
                                     SimTime now) const {
  Worker& worker = *workers_[w];
  if (const VirtualizationBlock* block =
          const_cast<Worker&>(worker).find_block(module.kernel);
      block != nullptr && worker.fabric().is_loaded(module.kernel)) {
    return std::max(now, block->issue_timeline().next_free());
  }
  // Not loaded: estimate configuration latency (port may be busy).
  const Bytes wire = worker.fabric().wire_bytes_for(module);
  const SimDuration config_time =
      worker.fabric().config().config_port_bw.transfer_time(wire) +
      worker.fabric().config().setup_latency;
  return now + config_time;
}

std::optional<UnilogicInvoke> UnilogicPool::invoke(
    std::size_t caller, const AcceleratorModule& module, std::uint64_t items,
    SimTime now, DispatchPolicy policy) {
  ECO_CHECK(caller < workers_.size());

  // Remote candidates ranked by estimated finish, best first. Remote
  // dispatch streams the call's I/O set uncached over the L0 interconnect
  // (ACE-lite, §4.1) and pays doorbell + completion interrupts; only
  // fabrics whose estimated *finish* still beats the caller-local one
  // qualify. The pool has no liveness oracle — a dead fabric is discovered
  // the hard way, by an unanswered doorbell — but it skips fabrics it has
  // already blacklisted from earlier failures.
  std::vector<std::pair<SimTime, std::size_t>> candidates;
  if (policy == DispatchPolicy::kLeastLoaded) {
    const Bytes moved =
        items * (module.bytes_in_per_item + module.bytes_out_per_item);
    const SimDuration remote_overhead =
        Bandwidth::from_gib_per_s(16.0).transfer_time(moved) +
        microseconds(2);
    const SimTime local_est = estimate_start(caller, module, now);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (w == caller) continue;
      if (health_ != nullptr &&
          health_->blacklisted(endpoint_base_ + w, now)) {
        continue;
      }
      const SimTime est = estimate_start(w, module, now) + remote_overhead;
      if (est < local_est) candidates.emplace_back(est, w);
    }
    std::sort(candidates.begin(), candidates.end());
  }

  // Bounded remote attempts, then degrade to a caller-local attempt. A
  // failed remote attempt has already paid its doorbell: that traffic and
  // energy stay on the books ("unilogic.wasted") and the target fabric is
  // blacklisted so the next calls stop picking it.
  Picojoules wasted = 0.0;
  SimTime attempt_now = now;
  bool remote_failed = false;
  const std::size_t attempts =
      std::min(candidates.size(), max_remote_attempts_);
  for (std::size_t i = 0; i <= attempts; ++i) {
    const bool remote = i < attempts;
    const std::size_t target = remote ? candidates[i].second : caller;
    if (!remote && remote_failed) {
      // Degrading to the caller's own fabric after remote failures.
      ++local_fallbacks_;
      ECO_TRACE_INSTANT(obs::Cat::kFailover, pool_trace_names().fallback,
                        (obs::Lane{workers_[caller]->coord().node,
                                   workers_[caller]->coord().worker}),
                        attempt_now, caller);
    }
    SimTime ready = attempt_now;
    Picojoules extra_energy = 0.0;

    // Spans land on the executing fabric's lane (the accelerator view of
    // C4 sharing: who queued behind whom, and for how long).
    [[maybe_unused]] const obs::Lane lane{workers_[target]->coord().node,
                                          workers_[target]->coord().worker};

    if (remote) {
      // Doorbell: user-level store to the remote block's mapped registers.
      Packet bell{PacketType::kInterrupt,
                  WorkerCoord{0, static_cast<WorkerId>(caller)},
                  WorkerCoord{0, static_cast<WorkerId>(target)}, 64};
      const auto t = network_.send(endpoint_base_ + caller,
                                   endpoint_base_ + target, bell, attempt_now);
      ready = t.arrival;
      extra_energy += t.energy;
      ECO_TRACE_INSTANT(obs::Cat::kUnilogic, pool_trace_names().doorbell,
                        lane, ready, caller);
      if (health_ != nullptr && !health_->up(endpoint_base_ + target)) {
        // The block died after placement: the doorbell is never answered.
        // Wait out the timeout, blacklist the fabric, try the next one.
        const SimTime gave_up = ready + dead_fabric_timeout_;
        ECO_TRACE_SPAN(obs::Cat::kRetry, pool_trace_names().retry,
                       (obs::Lane{workers_[caller]->coord().node,
                                  workers_[caller]->coord().worker}),
                       attempt_now, gave_up,
                       static_cast<std::uint32_t>(target));
        health_->blacklist(endpoint_base_ + target, gave_up + blacklist_for_);
        ++failed_remote_attempts_;
        remote_failed = true;
        wasted += extra_energy;
        attempt_now = gave_up;
        continue;
      }
    }

    auto exec = workers_[target]->run_hardware(
        module, items, ready, static_cast<std::uint32_t>(caller));
    if (!exec) {
      if (!remote) break;  // caller-local attempt failed: give up
      // The fabric nacked the call (module does not fit). Blacklist it so
      // placement stops re-trying a fabric that can never host the module.
      ECO_TRACE_SPAN(obs::Cat::kRetry, pool_trace_names().retry,
                     (obs::Lane{workers_[caller]->coord().node,
                                workers_[caller]->coord().worker}),
                     attempt_now, ready, static_cast<std::uint32_t>(target));
      if (health_ != nullptr) {
        health_->blacklist(endpoint_base_ + target, ready + blacklist_for_);
      }
      ++failed_remote_attempts_;
      remote_failed = true;
      wasted += extra_energy;
      attempt_now = ready;
      continue;
    }

    UnilogicInvoke result;
    result.executed_on = target;
    result.start = exec->start;
    result.finish = exec->finish;
    result.energy = exec->energy + extra_energy;
    result.remote = remote;
    result.reconfigured = exec->reconfigured;

    // Acquire-to-start wait (reconfiguration and/or queueing behind
    // earlier calls on the shared block), then the execution itself.
    if (exec->start > ready) {
      ECO_TRACE_SPAN(obs::Cat::kUnilogic, pool_trace_names().queue, lane,
                     ready, exec->start, caller);
    }
    ECO_TRACE_SPAN(obs::Cat::kUnilogic, pool_trace_names().exec, lane,
                   exec->start, exec->finish, items);

    if (remote) {
      ++remote_invocations_;
      // The remote block reads its operands from the *caller's* memory
      // over the L0 interconnect with its data cache disabled (ACE-lite):
      // stream the I/O set across the network and take the slower of
      // compute and uncached data movement.
      const Bytes moved =
          items * (module.bytes_in_per_item + module.bytes_out_per_item);
      Packet data{PacketType::kDma,
                  WorkerCoord{0, static_cast<WorkerId>(caller)},
                  WorkerCoord{0, static_cast<WorkerId>(target)}, moved};
      const auto t = network_.send(endpoint_base_ + caller,
                                   endpoint_base_ + target, data,
                                   result.start);
      result.finish = std::max(result.finish, t.arrival);
      result.energy += t.energy;
      // Completion interrupt back to the caller.
      Packet done{PacketType::kInterrupt,
                  WorkerCoord{0, static_cast<WorkerId>(target)},
                  WorkerCoord{0, static_cast<WorkerId>(caller)}, 16};
      const auto back = network_.send(endpoint_base_ + target,
                                      endpoint_base_ + caller, done,
                                      result.finish);
      result.finish = back.arrival;
      result.energy += back.energy;
      energy_.charge(pool_trace_names().remote, result.energy);
    } else {
      ++local_invocations_;
      energy_.charge(pool_trace_names().local, result.energy);
    }
    if (wasted > 0.0) {
      energy_.charge(pool_trace_names().wasted, wasted);
      result.energy += wasted;
    }
    return result;
  }

  // Every attempt failed; the burnt doorbell traffic is still real.
  if (wasted > 0.0) energy_.charge(pool_trace_names().wasted, wasted);
  return std::nullopt;
}

}  // namespace ecoscale
