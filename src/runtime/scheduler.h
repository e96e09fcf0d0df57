// The ECOSCALE runtime scheduler (paper §4.2, Figure 5).
//
// "We will implement one scheduler per worker, which will manage the local
// reconfigurable blocks and the execution of the accelerated functions.
// Whenever a function is called, a work and data distribution algorithm…
// will decide whether the function will be executed in software or in
// hardware based on the local status and the status of other Workers in
// the vicinity. To curb the overhead of monitoring remote status, we will
// implement local work queues per worker and infer (approximately) the
// status of remote workers via the status of the local queue, using
// techniques inspired by Lazy Scheduling."
//
// Two orthogonal policy axes are modelled:
//  * PlacementPolicy  — SW vs. HW per task (always-SW / always-HW /
//    size-threshold / model-based on the learned CostPredictor).
//  * DistributionPolicy — which worker's queue a task lands in
//    (home-only / lazy local-queue spill / centralized dispatcher /
//    poll-everyone oracle).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "model/predictor.h"
#include "runtime/daemon.h"
#include "runtime/fault.h"
#include "runtime/machine.h"
#include "runtime/task.h"
#include "sim/simulator.h"

namespace ecoscale {

enum class PlacementPolicy {
  kAlwaysSoftware,
  kAlwaysHardware,
  kSizeThreshold,   // HW iff items >= threshold
  kModelBased,      // argmin over predicted objective
};

enum class DistributionPolicy {
  kHomeOnly,        // no balancing at all
  kLazyLocal,       // spill to a neighbour only when the local queue is deep
  kCentralized,     // one global dispatcher with perfect info
  kPollLeastLoaded, // per-task polling of every worker (perfect info, costly)
};

enum class Objective { kTime, kEnergy, kEnergyDelay };

struct RuntimeConfig {
  PlacementPolicy placement = PlacementPolicy::kModelBased;
  DistributionPolicy distribution = DistributionPolicy::kLazyLocal;
  Objective objective = Objective::kTime;
  std::uint64_t size_threshold = 4096;   // items, for kSizeThreshold
  std::size_t spill_depth = 4;           // lazy: queue depth that spills
  std::size_t max_spill_hops = 3;        // lazy: cascade limit per task
  bool share_fabric = true;              // UNILOGIC on/off
  SimDuration dispatcher_service = microseconds(2);  // centralized cost
  SimDuration poll_cost = microseconds(1);           // per polled worker
  /// Admission control: a task arriving at a worker whose queue depth
  /// (queued + running) has reached this limit is *shed* — dropped from
  /// the pending set, counted in RuntimeStats::shed_tasks, and reported
  /// to the shed handler so the application can fail the request instead
  /// of letting the queue grow without bound. 0 disables (legacy).
  std::size_t admission_limit = 0;
  /// Request batching: when dispatch_overhead > 0, opening a batch costs
  /// dispatch_overhead once, then up to batch_size queued tasks dispatch
  /// back to back without re-paying it — the doorbell/submission
  /// amortization serving workloads rely on. dispatch_overhead == 0
  /// keeps the legacy immediate-dispatch behaviour byte-identical.
  std::size_t batch_size = 1;
  SimDuration dispatch_overhead = 0;
  /// Run a per-worker reconfiguration daemon (history-driven prefetch,
  /// §4.2): ticks opportunistically at dispatch points.
  bool enable_daemon = false;
  DaemonConfig daemon;
  /// Live fault injection through the simulator (FaultInjector): worker
  /// crashes, node losses, link degradation and fabric SEUs, detected by
  /// a heartbeat monitor and recovered via re-execution on survivors.
  FaultConfig faults;
  /// --- Online repartitioning (src/repart/, DESIGN.md §7.11) -------------
  /// Epoch period of the repartitioner a ShardedRuntime drives between
  /// engine pauses; 0 = off (no epoch pauses, the legacy run loop). The
  /// knobs below are read by repart::Repartitioner when it installs
  /// itself; they live here so one RuntimeConfig describes a node's whole
  /// policy surface.
  SimDuration repartition_epoch = 0;
  /// Rate limit: most item migrations a single epoch may execute.
  std::size_t repartition_max_moves = 32;
  /// Hysteresis floor on capacity-normalized load imbalance (max/mean - 1);
  /// below it an epoch plans no balance moves.
  double repartition_imbalance = 0.10;
  /// Diffusion damping per epoch toward the capacity-proportional share.
  double repartition_alpha = 0.5;
  /// Epochs an item is frozen after it moves (anti-thrash hysteresis).
  std::size_t repartition_cooldown = 2;
  /// Locality moves require at least this windowed access-count advantage
  /// at the preferred node, confirmed over two consecutive epochs.
  std::uint64_t repartition_min_gain = 16;
};

struct RuntimeStats {
  SimTime makespan = 0;
  Picojoules energy = 0.0;
  std::uint64_t sw_tasks = 0;
  std::uint64_t hw_tasks = 0;
  std::uint64_t remote_hw_tasks = 0;
  std::uint64_t forwarded_tasks = 0;
  std::uint64_t monitor_messages = 0;  // distribution-policy overhead
  std::uint64_t worker_failures = 0;   // crashes that hit running tasks
  std::uint64_t reexecutions = 0;
  /// Energy burnt by attempts a crash destroyed: partial progress up to
  /// the failure instant, charged in proportion to elapsed runtime.
  Picojoules wasted_energy = 0.0;
  /// Heartbeat-monitor detections of down workers (live fault path).
  std::uint64_t detections = 0;
  /// Tasks moved off a detected-dead worker to a survivor.
  std::uint64_t task_failovers = 0;
  /// Tasks refused by admission control (queue depth at admission_limit).
  std::uint64_t shed_tasks = 0;
  Samples queue_wait_ns;
  Samples turnaround_ns;
};

class RuntimeSystem {
 public:
  RuntimeSystem(Machine& machine, Simulator& sim, RuntimeConfig config = {});

  /// Register a kernel with its HLS-generated module variants (largest
  /// variant that fits is chosen at load time).
  void register_kernel(const KernelIR& kernel,
                       std::vector<AcceleratorModule> variants);

  /// Queue a task for execution at task.release.
  void submit(const Task& task);

  /// Run the simulation until all submitted tasks complete.
  void run();

  const std::vector<TaskResult>& results() const { return results_; }
  RuntimeStats stats() const;
  CostPredictor& predictor() { return predictor_; }
  const RuntimeConfig& config() const { return config_; }
  /// Daemon of a worker (nullptr unless enable_daemon).
  ReconfigDaemon* daemon(std::size_t worker) {
    return daemons_.empty() ? nullptr : daemons_[worker].get();
  }

  /// Live fault injector (nullptr unless config.faults.enabled).
  FaultInjector* faults() { return injector_.get(); }

  std::size_t worker_count() const { return workers_.size(); }
  /// Queue depth (queued + running) of `worker` — the same metric
  /// admission control limits, exposed for the repartitioner's epoch
  /// sampling (read only at engine pauses, when nothing runs).
  std::size_t queue_depth(std::size_t worker) const {
    ECO_CHECK(worker < workers_.size());
    const WorkerState& w = workers_[worker];
    return w.queue.size() + (w.busy ? 1 : 0);
  }
  /// Workers the heartbeat monitor currently believes alive — the node's
  /// effective capacity as far as any placement policy may legally know
  /// (known_down, never the injector's ground truth).
  std::size_t believed_alive_workers() const {
    std::size_t alive = 0;
    for (const WorkerState& w : workers_) {
      if (!w.known_down) ++alive;
    }
    return alive;
  }

  /// Called when a task's result is recorded, inside the completion event
  /// at result.finished (same causal point as results_.push_back). Serving
  /// layers use it to decode Task::payload and send responses; it runs on
  /// this runtime's simulator, so it may post follow-on events. Unset
  /// (default) keeps the completion path allocation-identical to legacy.
  using CompletionHandler = std::function<void(const Task&, const TaskResult&)>;
  void set_completion_handler(CompletionHandler handler) {
    completion_handler_ = std::move(handler);
  }

  /// Called when admission control sheds a task (at the shed instant).
  using ShedHandler = std::function<void(const Task&, SimTime)>;
  void set_shed_handler(ShedHandler handler) {
    shed_handler_ = std::move(handler);
  }

  /// One recovered in-flight task: when its worker crashed, when the
  /// heartbeat monitor declared the worker dead, and where the task was
  /// re-queued. Tests pin the detection-latency causality on this.
  struct RecoveryRecord {
    TaskId task = 0;
    std::size_t worker = 0;
    std::size_t requeued_to = 0;
    SimTime crash_at = 0;
    SimTime detected_at = 0;
  };
  const std::vector<RecoveryRecord>& recovery_log() const {
    return recovery_log_;
  }

 private:
  /// A task in a worker's queue (or in flight), with whether it left its
  /// home queue. Routing and lazy spills set the bit before the first
  /// enqueue; failover and repair re-arrivals carry it unchanged.
  struct QueuedTask {
    Task task;
    bool forwarded = false;
  };

  struct WorkerState {
    std::deque<QueuedTask> queue;
    bool busy = false;
    /// Bumped at every dispatch and every crash: a completion event whose
    /// epoch is stale belongs to an attempt the crash destroyed (the
    /// simulator has no event cancellation).
    std::uint64_t epoch = 0;
    /// Attempt currently executing (live fault path bookkeeping).
    bool in_flight = false;
    QueuedTask current{};
    SimTime exec_start = 0;
    SimTime exec_finish = 0;
    Picojoules exec_energy = 0.0;
    /// The *runtime's* view of liveness: set only once the heartbeat
    /// monitor detects the crash (detect_timeout after the fact), cleared
    /// on repair. HealthRegistry knows sooner; the scheduler must not.
    bool known_down = false;
    /// Crash awaiting detection (valid while pending_detect).
    bool pending_detect = false;
    SimTime crash_at = 0;
    /// Tasks remaining in the open batch window (dispatch_overhead > 0):
    /// while nonzero, dispatch() skips the batch-open overhead.
    std::size_t batch_left = 0;
  };

  void arrive(std::size_t worker, QueuedTask queued, int spill_hops);
  /// Lazy cascade: the spill target for a task that finds `worker`'s queue
  /// deep — a node neighbour first, then the sibling worker one node over.
  std::size_t spill_target(std::size_t worker, const Task& task,
                           int hops) const;
  void dispatch(std::size_t worker);
  /// Choose the queue a task should land in; returns flat worker index and
  /// charges any monitoring/forwarding costs.
  std::size_t route(const Task& task);
  // --- live fault path ---------------------------------------------------
  /// FaultInjector callbacks (fire at crash/repair sim time).
  void on_worker_down(std::size_t worker, SimTime at);
  void on_worker_up(std::size_t worker, SimTime at);
  /// Heartbeat monitor: periodic tick that detects silent workers once
  /// they have been down for detect_timeout, then drains their work onto
  /// survivors. Started lazily by submit(), stops when nothing is pending.
  void ensure_monitor();
  void monitor_tick();
  /// Least-loaded worker the runtime believes is alive, excluding
  /// `avoid`; falls back to `avoid` if it believes nobody else is.
  std::size_t survivor_for(std::size_t avoid) const;
  /// Choose SW / local HW / shared HW for a dispatched task.
  DeviceClass place(const Task& task, std::size_t worker);
  /// Pick the largest registered variant that can fit the worker's fabric.
  const AcceleratorModule* choose_variant(KernelId kernel,
                                          std::size_t worker) const;

  Machine& machine_;
  Simulator& sim_;
  RuntimeConfig config_;
  std::map<KernelId, KernelIR> kernels_;
  std::map<KernelId, std::vector<AcceleratorModule>> variants_;
  std::vector<WorkerState> workers_;
  std::vector<std::unique_ptr<ReconfigDaemon>> daemons_;  // if enabled
  std::vector<SimTime> next_daemon_tick_;
  std::uint64_t failures_ = 0;
  std::uint64_t reexecutions_ = 0;
  std::unique_ptr<FaultInjector> injector_;  // if config.faults.enabled
  bool monitor_running_ = false;
  Picojoules wasted_energy_ = 0.0;
  std::uint64_t detections_ = 0;
  std::uint64_t task_failovers_ = 0;
  std::vector<RecoveryRecord> recovery_log_;
  Timeline dispatcher_{"dispatcher"};  // centralized mode serialisation
  CostPredictor predictor_;
  std::vector<TaskResult> results_;
  std::uint64_t monitor_messages_ = 0;
  std::uint64_t pending_ = 0;
  std::uint64_t shed_tasks_ = 0;
  CompletionHandler completion_handler_;
  ShedHandler shed_handler_;
};

}  // namespace ecoscale
