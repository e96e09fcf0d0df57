// UNIMEM partitioned global address space (paper §2, §4.1).
//
// One PgasSystem spans a machine of `nodes` Compute Nodes × `workers`
// Workers. Every Worker can load/store any GlobalAddress:
//
//  * If the address's page is owned by the Worker's node, the access runs
//    through the node-local coherence domain (the only coherence domain
//    that exists — UNIMEM's invariant is that a page is cacheable at its
//    owning node and nowhere else).
//  * Otherwise the access is routed over the hierarchical interconnect to
//    the owning node's memory and is *not* cached locally — remote data is
//    accessed with plain loads/stores, no global snooping (ACE-lite
//    semantics for remote masters).
//
// The class also provides the two mobility primitives the paper
// contrasts: page migration (move data to the task) and task migration
// (move the task to the data).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "address/address.h"
#include "address/ownership.h"
#include "address/progressive.h"
#include "common/energy.h"
#include "common/health.h"
#include "common/units.h"
#include "interconnect/network.h"
#include "memory/cache.h"
#include "memory/coherence.h"
#include "memory/dram.h"
#include "sim/timeline.h"
#include "unimem/retry.h"

namespace ecoscale {

/// Coherence scope: UNIMEM (the paper's contribution — one small domain
/// per node, remote accesses uncached) vs. a machine-wide domain (the
/// "global cache coherent mechanism, which simply cannot scale" baseline,
/// provided so the scalability comparison can be *timed*, not just
/// message-counted).
enum class CoherenceScope { kUnimem, kGlobal };

struct PgasConfig {
  std::size_t nodes = 2;
  std::size_t workers_per_node = 4;
  /// Optional third hierarchy level (paper §2: "multi-node chassis and
  /// cabinets"): when > 1, the `nodes` are grouped into this many chassis
  /// (nodes must divide evenly) and inter-chassis links use l2_link.
  std::size_t chassis = 1;
  CacheConfig cache;            // per-worker cache
  DramConfig dram;              // per-worker DRAM channel
  LinkParams l0_link;           // worker <-> node switch
  LinkParams l1_link;           // node switch <-> chassis/global switch
  LinkParams l2_link;           // chassis switch <-> root (if chassis > 1)
  CoherenceMode node_coherence = CoherenceMode::kDirectory;
  CoherenceScope scope = CoherenceScope::kUnimem;
  /// Global-scope baseline only: wire latency of one snoop probe/response
  /// (cross-machine, so it pays inter-node distance).
  SimDuration global_snoop_latency = nanoseconds(180);
  Picojoules global_snoop_energy = 150.0;  // per snoop message
  /// Broadcast coherence requires a machine-wide ordering point; every
  /// miss/upgrade serialises through it. This occupancy — total
  /// transactions grow with machine size while the ordering point does
  /// not — is the structural reason global snooping cannot scale.
  SimDuration global_order_occupancy = nanoseconds(20);
  /// Closure size for task migration (descriptor + captured args).
  Bytes task_closure_bytes = 256;
  /// Fault handling of accesses whose owning node is down (needs a
  /// HealthRegistry via set_health): the shared retry contract
  /// (unimem/retry.h), then failover to a surviving node.
  RetryPolicy fault_retry;
  /// Progressive address translation (Katevenis [12]): per-level lookup
  /// latencies paid by each access as it climbs the hierarchy. Charged on
  /// the request path (local: level 0; intra-node: +level 1; cross-node:
  /// +level 2).
  std::vector<SimDuration> translation_latencies = {
      nanoseconds(1), nanoseconds(6), nanoseconds(30)};

  PgasConfig() {
    l0_link.hop_latency = nanoseconds(20);
    l0_link.bandwidth = Bandwidth::from_gib_per_s(16.0);
    l0_link.pj_per_byte = 1.0;
    l1_link.hop_latency = nanoseconds(150);
    l1_link.bandwidth = Bandwidth::from_gib_per_s(8.0);
    l1_link.pj_per_byte = 6.0;
    l2_link.hop_latency = nanoseconds(500);
    l2_link.bandwidth = Bandwidth::from_gib_per_s(5.0);
    l2_link.pj_per_byte = 20.0;
  }
};

struct MemAccess {
  SimTime finish = 0;
  bool remote = false;     // crossed the node boundary
  bool cache_hit = false;  // served by the local coherent domain's cache
  Picojoules energy = 0.0;
};

struct MigrationResult {
  SimTime finish = 0;
  Bytes bytes_moved = 0;
  Picojoules energy = 0.0;
};

/// Remote atomics execute at the page's owning node (§4.1: the
/// interconnect carries small synchronisation transfers "to synchronize
/// remote threads" — the very traffic the paper says DMA-only systems
/// handle badly).
enum class AtomicOp : std::uint8_t {
  kFetchAdd,
  kSwap,
  kCompareSwap,
  kFetchOr,
};

struct AtomicResult {
  std::uint64_t old_value = 0;
  bool swapped = false;  // CAS success
  SimTime finish = 0;
  bool remote = false;
  Picojoules energy = 0.0;
};

/// Observation hooks over the UNIMEM access/migration/failover machinery
/// (DESIGN.md §7.10). The litmus harness installs these to reconstruct the
/// per-page serialization order the memory-model oracle checks against,
/// and to script health transitions *between* dead-owner retry attempts —
/// the only way a repair can race the retry loop deterministically. All
/// callbacks fire at the serialization point of the operation (functional
/// effect already applied, timing resolved). Unset observers cost one
/// pointer compare per operation.
struct PgasObserver {
  enum class Kind : std::uint8_t { kLoad, kStore, kDma, kAtomic };
  struct Access {
    WorkerCoord who;
    PageId page = 0;
    Kind kind = Kind::kLoad;
    SimTime issue = 0;    // caller's `now`, before translation
    SimTime finish = 0;   // completion at the requester
    NodeId owner = 0;     // owning node the access serialized at
    bool remote = false;  // crossed the node boundary
  };
  std::function<void(const Access&)> on_access;
  /// Page ownership moved: an explicit migrate_page (failover == false) or
  /// a dead-owner re-home (failover == true).
  std::function<void(PageId page, NodeId from, NodeId to, SimTime start,
                     SimTime finish, bool failover)>
      on_ownership_change;
  /// One timed-out retry attempt against a dead owner just elapsed
  /// (attempt counts from 1); invoked *before* the liveness re-check, so a
  /// repair applied here races the retry loop exactly where a concurrent
  /// repair event would land.
  std::function<void(WorkerCoord who, PageId page, std::size_t attempt,
                     SimTime now)>
      on_retry;
};

class PgasSystem {
 public:
  explicit PgasSystem(PgasConfig config = {});

  std::size_t node_count() const { return config_.nodes; }
  std::size_t workers_per_node() const { return config_.workers_per_node; }
  std::size_t worker_count() const {
    return config_.nodes * config_.workers_per_node;
  }

  /// Allocate `size` bytes homed at (node, worker); pages are registered
  /// with the ownership directory. Page-aligned bump allocation.
  GlobalAddress alloc(NodeId node, WorkerId worker, Bytes size);

  // --- timed accesses ----------------------------------------------------
  MemAccess load(WorkerCoord who, GlobalAddress addr, Bytes size,
                 SimTime now);
  MemAccess store(WorkerCoord who, GlobalAddress addr, Bytes size,
                  SimTime now);

  /// Bulk DMA (one transfer, bandwidth-dominated), used for explicit data
  /// movement and for page migration internals.
  MemAccess dma(WorkerCoord who, GlobalAddress src_or_dst, Bytes size,
                bool write, SimTime now);

  /// Atomic read-modify-write on a 64-bit word, executed at the owning
  /// node (functionally exact against the backing store). `compare` is
  /// used only by kCompareSwap.
  AtomicResult atomic_rmw(WorkerCoord who, GlobalAddress addr, AtomicOp op,
                          std::uint64_t operand, SimTime now,
                          std::uint64_t compare = 0);

  // --- functional backing store -------------------------------------------
  void write_bytes(GlobalAddress addr, std::span<const std::uint8_t> data);
  void read_bytes(GlobalAddress addr, std::span<std::uint8_t> out) const;

  // --- mobility ------------------------------------------------------------
  /// Move page ownership to `dst` node: flush the old owner's cached lines
  /// of that page, transfer the page, update the directory.
  MigrationResult migrate_page(PageId page, NodeId dst, SimTime now);

  /// Ship a task closure from one worker to another (move task to data).
  MigrationResult migrate_task(WorkerCoord from, WorkerCoord to, SimTime now);

  // --- introspection -------------------------------------------------------
  const OwnershipDirectory& directory() const { return directory_; }
  OwnershipDirectory& directory() { return directory_; }
  Network& network() { return *network_; }
  /// Per-node / per-worker state is pooled lazily (DESIGN.md §7.7): the
  /// slot vectors are sized at construction but hold nulls until first
  /// touch, so a 100k-worker machine pays 8 bytes per untouched worker.
  /// These accessors construct on demand; construction is purely
  /// functional (no timed side effects), so laziness never changes
  /// simulation results.
  CoherenceDomain& node_domain(NodeId node) { return domain_at(node); }
  DramChannel& dram(WorkerCoord w) { return dram_at(flat(w)); }
  Cache& cache(WorkerCoord w) { return cache_at(flat(w)); }

  /// Worker slots whose cache/DRAM state has actually been built — the
  /// pooling metric bench_scale tracks (untouched workers stay at 0).
  std::size_t constructed_workers() const {
    std::size_t n = 0;
    for (const auto& c : caches_) n += c != nullptr;
    return n;
  }

  /// Promise that no future timed access is issued before `watermark`;
  /// prunes the retired past from every calendar resource (network links,
  /// DRAM channels). Call at epoch boundaries in long-running workloads to
  /// keep reserve() O(log live-intervals).
  void release(SimTime watermark) {
    network_->release(watermark);
    for (auto& d : drams_) {
      if (d != nullptr) d->release(watermark);
    }
  }

  /// Conservative lookahead for sharding a simulation per Compute Node
  /// (the UNIMEM partition boundary): the minimum head latency of any
  /// route crossing a level>=1 (inter-node) link. Every cross-node
  /// interaction — remote load/store, atomic, migration — pays at least
  /// this before it can touch another node, so a sharded engine using it
  /// never delivers an event into a shard's past. Returns 0 on a
  /// single-node machine (no cross-node traffic, nothing to shard).
  SimDuration shard_lookahead() { return network_->min_cross_latency(1); }

  /// Per-peer lookahead for the adaptive sharded engine: the head latency
  /// of the route between node `from` and node `to` (measured between
  /// their lead workers — the machine builders attach every worker to its
  /// node switch symmetrically, so any worker pair across the two nodes
  /// pays the same inter-node path). Head latency is a metric (a shortest
  /// path over per-link latencies obeys the triangle inequality), which is
  /// exactly the property ShardedConfig::pair_lookahead requires for
  /// relay-safe adaptive horizons. Mutation-free LCA walk under implicit
  /// routing — safe from concurrent shard threads.
  SimDuration shard_lookahead(std::size_t from, std::size_t to) {
    return network_->route_latency(
        flat(WorkerCoord{static_cast<NodeId>(from), 0}),
        flat(WorkerCoord{static_cast<NodeId>(to), 0}));
  }

  /// Per-source lookahead floor: the cheapest inter-node (level >= 1)
  /// route out of node `from`. Feeds ShardedConfig::source_floor when the
  /// shard count is past the dense pair-matrix cap. Cached per level
  /// inside the network after the first call.
  SimDuration shard_lookahead_floor(std::size_t from) {
    return network_->min_latency_from(
        flat(WorkerCoord{static_cast<NodeId>(from), 0}), 1);
  }

  std::uint64_t remote_accesses() const { return remote_accesses_; }
  std::uint64_t local_accesses() const { return local_accesses_; }
  const EnergyMeter& energy() const { return energy_; }

  // --- fault handling ------------------------------------------------------
  /// Attach the machine's liveness registry. Unset (the default) disables
  /// the dead-owner path entirely: no per-access overhead, no failover.
  void set_health(const HealthRegistry* health) { health_ = health; }
  /// Timed-out attempts against dead owning nodes.
  std::uint64_t remote_retries() const { return remote_retries_; }
  /// Pages re-homed to a surviving node after retry exhaustion.
  std::uint64_t page_failovers() const { return page_failovers_; }

  /// Attach litmus/diagnostic observation hooks (nullptr detaches). The
  /// observer must outlive the accesses it watches.
  void set_observer(const PgasObserver* observer) { observer_ = observer; }

  std::size_t flat(WorkerCoord w) const {
    return static_cast<std::size_t>(w.node) * config_.workers_per_node +
           w.worker;
  }
  WorkerCoord coord(std::size_t flat_index) const {
    return WorkerCoord{
        static_cast<NodeId>(flat_index / config_.workers_per_node),
        static_cast<WorkerId>(flat_index % config_.workers_per_node)};
  }

 private:
  MemAccess access(WorkerCoord who, GlobalAddress addr, Bytes size,
                   bool write, bool bulk, SimTime now);
  std::vector<std::uint8_t>& page_data(PageId page);

  // Lazy slot constructors (see the public accessors). domain_at forces
  // every cache of the node — the coherence domain holds raw pointers.
  Cache& cache_at(std::size_t flat_index);
  DramChannel& dram_at(std::size_t flat_index);
  CoherenceDomain& domain_at(NodeId node);

  /// Dead-owner recovery: bounded timed-out retries against `page`'s
  /// (down) owning node, then ownership failover to a surviving node.
  /// Returns the time the access may proceed; the page's owner may have
  /// changed, so callers must re-resolve it.
  SimTime fail_over_dead_owner(WorkerCoord who, PageId page, SimTime now);

  /// Owner of `page` with a one-entry memo in front of the directory —
  /// access streams revisit the same page line after line, so the common
  /// case is a single compare. Invalidated by migrate_page(). Checks that
  /// the page is registered.
  NodeId owner_of(PageId page) {
    if (page == cached_page_) return cached_owner_;
    const auto o = directory_.owner(page);
    ECO_CHECK_MSG(o.has_value(), "access to unregistered page");
    cached_page_ = page;
    cached_owner_ = *o;
    return *o;
  }

  PgasConfig config_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Cache>> caches_;
  std::vector<std::unique_ptr<DramChannel>> drams_;
  std::vector<std::unique_ptr<CoherenceDomain>> domains_;
  OwnershipDirectory directory_;
  std::unordered_map<PageId, std::vector<std::uint8_t>> store_;
  std::vector<std::uint64_t> alloc_cursor_;  // per worker, byte offset
  std::uint64_t remote_accesses_ = 0;
  std::uint64_t local_accesses_ = 0;
  const HealthRegistry* health_ = nullptr;
  const PgasObserver* observer_ = nullptr;
  std::uint64_t remote_retries_ = 0;
  std::uint64_t page_failovers_ = 0;
  std::unique_ptr<ProgressiveTranslator> translator_;
  Timeline global_order_{"snoop_order"};  // global-scope baseline only
  EnergyMeter energy_;
  // One-entry owner memo (see owner_of()).
  PageId cached_page_ = ~0ull;
  NodeId cached_owner_ = 0;
};

}  // namespace ecoscale
