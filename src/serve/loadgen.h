// Open- and closed-loop load generation for the KV service.
//
// Each origin node runs its own decorrelated Rng stream and issues
// requests with Zipfian key skew (common/rng.h ZipfSampler — one shared
// immutable CDF, per-origin streams):
//
//  * Open loop: Poisson arrivals at offered_load / nodes per origin,
//    optionally bursty (bounded-Poisson extra arrivals per instant).
//    Arrival times never depend on responses — the generator keeps
//    offering load while the service saturates, which is what makes the
//    throughput-vs-offered-load knee and the admission-control shed
//    count visible.
//  * Closed loop: clients_per_node clients per origin, each issuing its
//    next request as soon as the previous one answers —
//    sheds answer too, so overload degrades, never livelocks.
//
// Latency is recorded at response delivery on the origin shard into a
// per-origin allocation-free histogram; report() folds origins with a
// deterministic reduction tree and fingerprints the result together with
// the store's apply log, giving the serve benches one hash to pin.
#pragma once

#include <cstdint>
#include <vector>

#include "common/latency.h"
#include "common/rng.h"
#include "common/units.h"
#include "serve/kvstore.h"

namespace ecoscale::serve {

struct LoadGenConfig {
  enum class Mode { kOpenLoop, kClosedLoop };
  Mode mode = Mode::kOpenLoop;

  /// Open loop: aggregate offered load (requests/second, whole machine)
  /// and the per-origin issue budget.
  double offered_load = 2e6;
  std::size_t requests_per_node = 2000;
  /// Open loop, optional bursts: mean extra same-instant arrivals
  /// (bounded Poisson, capped at burst_cap). 0 = pure Poisson process.
  double burst_mean = 0.0;
  std::uint64_t burst_cap = 8;

  /// Closed loop: concurrent clients per origin, requests each.
  std::size_t clients_per_node = 8;
  std::size_t requests_per_client = 200;

  /// Key popularity skew (0 = uniform) over the store's key space.
  double zipf_skew = 0.99;
  /// Phase-affine traffic (the repartitioning workload): with this
  /// probability a request's key is drawn from the origin's *affine
  /// window* — a contiguous key_space/nodes range, Zipf-ranked within and
  /// hash-scattered so hot keys spread over the window — instead of the
  /// global draw. 0 (default) is the legacy generator, bit-for-bit.
  double origin_affinity = 0.0;
  /// Affine windows rotate one node every phase_period of simulated time
  /// (origin o's window at phase p starts at ((o + p) % nodes) * window),
  /// so the traffic's home keeps shifting and a static partition decays.
  /// 0 = stationary windows.
  SimDuration phase_period = 0;
  /// Operation mix; the remainder after get + delete is SET.
  double get_fraction = 0.80;
  double delete_fraction = 0.02;
  std::uint64_t seed = 0xEC05CA1E;
};

class LoadGen {
 public:
  LoadGen(ShardedRuntime& rt, KvStore& kv, LoadGenConfig config);

  /// Arm the generators (schedules the first arrivals on every origin
  /// shard). Call once, before ShardedRuntime::run().
  void start();

  struct Report {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;  // answered, not shed
    std::uint64_t shed = 0;
    LatencyHistogram latency;     // successful requests, picoseconds
    SimTime last_completion = 0;
    /// Latency histograms + apply log + shed/issue counts, reduction-tree
    /// folded: the value serve determinism gates pin.
    std::uint64_t fingerprint = 0;
  };
  Report report() const;

 private:
  struct Origin {
    Rng rng{0};
    std::size_t issued = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::vector<SimTime> issue_time;  // by per-origin sequence number
    LatencyHistogram latency;
    SimTime last_completion = 0;
  };

  std::size_t budget_per_node() const {
    return config_.mode == LoadGenConfig::Mode::kOpenLoop
               ? config_.requests_per_node
               : config_.clients_per_node * config_.requests_per_client;
  }
  /// Issue one request from `origin` (must run on that shard).
  void issue_one(std::size_t origin);
  /// Open-loop arrival event: issue, then self-schedule the next gap.
  void arrival(std::size_t origin);
  void on_response(std::size_t origin, const KvResponse& resp);

  ShardedRuntime& rt_;
  KvStore& kv_;
  LoadGenConfig config_;
  ZipfSampler zipf_;           // immutable after construction
  std::vector<Origin> origins_;  // index N owned by shard N's events
};

}  // namespace ecoscale::serve
