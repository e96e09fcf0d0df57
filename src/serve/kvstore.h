// Partitioned key-value service over the UNIMEM PGAS (ROADMAP item 1).
//
// The memcached shape on an ECOSCALE machine: keys hash-partition across
// Compute Nodes and across Workers within each node, every key owning a
// fixed 16-byte slot in its home Worker's PGAS region. A request is a
// Task — GET/SET/DELETE packed into Task::payload — dispatched through
// ShardedRuntime::post_task, so it pays the inter-node head latency on
// the way in, queues at the owning Worker (per-node request queues), and
// rides the scheduler's request batching and admission control
// (RuntimeConfig::batch_size / admission_limit). Service cost is the KV
// kernel's software execution; the storage access itself is a timed
// PgasSystem load/store issued at completion, so cache hits, DRAM
// occupancy and (for misrouted accesses) interconnect time are all paid.
//
// Every mutable structure is shard-owned: the apply log and shed counter
// of node N are touched only by events executing on shard N, responses
// are delivered as origin-shard events, and the per-node logs fold into
// one fingerprint through a deterministic reduction tree, so a run is
// byte-identical to any other run of the same configuration.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.h"
#include "hls/ir.h"
#include "repart/repart.h"
#include "runtime/sharded.h"
#include "unimem/directory.h"

namespace ecoscale::serve {

enum class KvOp : std::uint8_t { kGet = 0, kSet = 1, kDelete = 2 };

const char* kv_op_name(KvOp op);

struct KvConfig {
  /// Distinct keys; must fit the payload's 44-bit key field.
  std::uint64_t key_space = 1ull << 16;
  /// Bytes a GET reads / a SET writes at the owning worker (timed access
  /// size; the functional slot is fixed at 16 bytes: present + value).
  Bytes value_bytes = 64;
  /// Work items of the KV kernel per request — the CPU service cost.
  std::uint64_t service_items = 32;
  /// 0 (default): the legacy immutable hash partition. Nonzero: keys
  /// group into this many contiguous-range *blocks* — the items the
  /// online repartitioner migrates. Contiguity matters: a hash partition
  /// would smear any per-origin key-range affinity across every block and
  /// erase the locality signal the repartitioner follows. Every node
  /// allocates slot storage for the whole key space so a block can land
  /// anywhere; initial owners are contiguous (block * nodes / blocks).
  std::size_t repart_blocks = 0;
};

/// One applied operation, recorded at the owning node in apply order.
/// The per-key serialization order is the order of this log filtered to
/// the key (every key lives on exactly one worker and home-only
/// distribution keeps its requests on that worker's serial queue).
struct KvApplyRecord {
  SimTime at = 0;          // storage access finish at the owner
  TaskId request = 0;
  std::uint64_t key = 0;
  KvOp op = KvOp::kGet;
  std::uint64_t value = 0;     // SET: value stored
  bool found = false;          // GET/DELETE: key present before the op
  std::uint64_t returned = 0;  // GET: value read (0 if absent)
};

/// What the origin node hears back, delivered on the origin's shard.
struct KvResponse {
  TaskId request = 0;
  std::uint64_t key = 0;
  KvOp op = KvOp::kGet;
  bool shed = false;   // refused by admission control, not applied
  bool found = false;
  std::uint64_t value = 0;
  SimTime completed = 0;  // arrival time back at the origin
};

class KvStore : public repart::RepartClient {
 public:
  KvStore(ShardedRuntime& rt, KvConfig config);

  /// Invoked on the *origin* shard when a response (or shed notice)
  /// arrives. Safe to issue follow-on requests from inside.
  using ResponseHandler =
      std::function<void(std::size_t origin, const KvResponse&)>;
  void set_response_handler(ResponseHandler handler) {
    response_handler_ = std::move(handler);
  }

  /// Issue a request from node `origin`. Must be called either before
  /// ShardedRuntime::run() or from inside an action executing on shard
  /// `origin` (the cross-node hop is a post_task from that shard).
  /// `request` must be nonzero and unique.
  void issue(std::size_t origin, KvOp op, std::uint64_t key,
             std::uint64_t value, TaskId request);

  /// Current owning node (block mode: the directory's holder, so call it
  /// at a pause or after the run).
  std::size_t owner_of(std::uint64_t key) const {
    if (config_.repart_blocks == 0) return owner_node_of_key_[key];
    return blocks_->holder(block_of(key));
  }
  const KvConfig& config() const { return config_; }
  const KernelIR& kernel() const { return kernel_; }

  // --- Block mode (config().repart_blocks > 0) ---------------------------
  std::uint32_t block_of(std::uint64_t key) const {
    return static_cast<std::uint32_t>(key * config_.repart_blocks /
                                      config_.key_space);
  }
  /// The canonical initial placement (contiguous key ranges) — construct
  /// the Repartitioner with this.
  std::vector<std::uint32_t> initial_block_owners() const {
    return contiguous_owners(config_.repart_blocks, nodes_);
  }
  /// Wire the store to its repartitioner: the store becomes the
  /// RepartClient (block migration), issues record into the tracker
  /// *issue-side at the origin* — so a crashed owner's blocks keep
  /// accruing offered load while its believed-alive capacity collapses,
  /// which is what lets diffusion drain a dead node — and owners are read
  /// from the directory the repartitioner flips.
  void attach_repartitioner(repart::Repartitioner* rp);

  // RepartClient: bytes that travel when a block migrates, and the
  // migration itself (functional slot copy + timed PGAS block DMA at both
  // ends + a unimem.block_move span). Runs at an epoch pause.
  std::uint64_t item_bytes(std::uint32_t block) const override;
  void migrate_item(std::uint32_t block, std::uint32_t from, std::uint32_t to,
                    SimTime at) override;

  /// Cross-node traffic accounting (block mode), reduction-tree folded.
  struct CrossStats {
    std::uint64_t remote_issues = 0;  // requests issued to a remote owner
    std::uint64_t forwards = 0;       // stale-owner re-homes in flight
    std::uint64_t byte_hops = 0;      // request+reply+forward value bytes x hops
  };
  CrossStats cross_stats() const;

  const std::vector<KvApplyRecord>& apply_log(std::size_t node) const {
    return apply_log_[node];
  }
  /// Admission-control sheds observed by this store, all nodes.
  std::uint64_t sheds() const;
  /// Deterministic fingerprint of every node's apply log (reduction-tree
  /// fold of per-node FNV hashes): the serve determinism gates pin it.
  std::uint64_t apply_log_hash() const;

 private:
  void on_complete(std::size_t owner, const Task& task,
                   const TaskResult& result);
  void on_shed(std::size_t owner, const Task& task, SimTime at);
  /// Send `resp` back to `origin`, departing the owner at `depart`.
  void respond(std::size_t owner, std::size_t origin, KvResponse resp,
               SimTime depart);
  /// First key of `block` and the key count (contiguous ranges).
  std::uint64_t block_first(std::uint32_t block) const;
  std::uint64_t block_keys(std::uint32_t block) const;

  ShardedRuntime& rt_;
  KvConfig config_;
  KernelIR kernel_;
  std::size_t nodes_ = 0;
  /// Host-side partition tables, immutable after construction.
  std::vector<std::uint32_t> owner_node_of_key_;
  std::vector<std::uint64_t> slot_addr_of_key_;  // raw GlobalAddress
  /// Block mode: per-node slot tables ([node][key], raw GlobalAddress —
  /// every node can host any block), and the block ownership directory:
  /// the attached repartitioner's, else the initial placement that nobody
  /// flips (dropped when a repartitioner attaches).
  std::vector<std::vector<std::uint64_t>> block_slot_addr_;
  std::optional<ShardedDirectory> static_blocks_;
  const ShardedDirectory* blocks_ = nullptr;
  repart::Repartitioner* repart_ = nullptr;
  /// Shard-owned: index N is written only by events on shard N.
  std::vector<std::vector<KvApplyRecord>> apply_log_;
  std::vector<std::uint64_t> sheds_;
  std::vector<std::uint64_t> remote_issues_;
  std::vector<std::uint64_t> forwards_;
  std::vector<std::uint64_t> byte_hops_;
  ResponseHandler response_handler_;
};

/// The KV request kernel (integer compare/hash mix, CPU-bound service).
KernelIR make_kv_kernel();

}  // namespace ecoscale::serve
