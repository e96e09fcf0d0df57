// The cross-node UNIMEM ownership directory on the sharded engine
// (DESIGN.md §7.10).
//
// An item (a page, a KV key block, a mesh cell) is cacheable only at its
// owning node, and ownership changes only when the item migrates (claim
// C2). Every node keeps a view of each item's owner; a node holds an item
// iff its own view names itself. Row n of the flat view array changes only
// in events on shard n, or at an engine pause, so no shard's events
// write another shard's view.
//
// Ownership moves at a pause (every view flips at once: the
// repartitioner's epoch cut) or in flight: the holder releases the item,
// the destination installs it and broadcasts the new owner, and views
// converge lazily. In-flight requests need the second constructor: they
// route by the requester's view, forward per stale view, and on a dead
// node retry per RetryPolicy, then fail the item over to the requester.
// Without in-flight transfers every view agrees between pauses, so the
// first constructor keeps one row that all nodes read, and holder() is a
// single read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/parallel.h"
#include "unimem/retry.h"

namespace ecoscale {

/// A post from shard `from`, or a same-shard event when `to == from`.
template <typename F>
void deliver(ShardedSimulator& sim, std::size_t from, std::size_t to,
             SimTime at, F&& fn) {
  if (from == to) {
    sim.shard(from).schedule_at(at, std::forward<F>(fn));
  } else {
    sim.post(from, to, at, std::forward<F>(fn));
  }
}

/// An access, or a migration to `to`, routed to the item's holder. The
/// directory carries `tag` for the client untouched.
struct DirRequest {
  std::uint64_t tag = 0;
  std::uint32_t item = 0;
  std::uint32_t from = 0;  // requesting node: nacks and acks return here
  bool migrate = false;
  std::uint32_t to = 0;
  std::uint8_t hops = 0;
  std::uint8_t attempts = 0;  // timed-out attempts against a dead owner
};

/// The item's user. Each callback runs on the shard of the node it names
/// (`migrated` and `jitter`: the requester's).
class DirectoryClient {
 public:
  virtual ~DirectoryClient() = default;
  /// An access reached the holder.
  virtual void serve(std::size_t node, const DirRequest& req) = 0;
  /// `node` installed the item by migration or by failover.
  virtual void installed(std::size_t node, const DirRequest& req,
                         bool failover) = 0;
  virtual void migrated(const DirRequest& req) = 0;
  /// Extra delay on the requester's sends, retry waits and failover
  /// fetches (schedule perturbation).
  virtual SimDuration jitter(const DirRequest&) { return 0; }
};

class ShardedDirectory {
 public:
  static constexpr std::uint8_t kMaxHops = 64;

  struct Counters {
    std::uint64_t nacks = 0;       // requests bounced off a dead node
    std::uint64_t retries = 0;     // timed-out attempts
    std::uint64_t failovers = 0;   // items re-homed by the recovery path
    std::uint64_t migrations = 0;  // migrate requests that reached a holder
    std::uint64_t forwards = 0;    // stale-view forwarding hops
    Counters& operator+=(const Counters& o) {
      nacks += o.nacks;
      retries += o.retries;
      failovers += o.failovers;
      migrations += o.migrations;
      forwards += o.forwards;
      return *this;
    }
  };

  /// Views, pause transfers and owner reads only: one row shared by every
  /// node.
  ShardedDirectory(std::size_t nodes, std::vector<std::uint32_t> owner);
  /// Also runs in-flight requests on `sim`, one shard per node, `hop` per
  /// message: one row per node.
  ShardedDirectory(ShardedSimulator& sim, SimDuration hop, RetryPolicy retry,
                   DirectoryClient& client, std::vector<std::uint32_t> owner);

  std::size_t items() const { return items_; }
  /// Node n's view of the item's owner. Read on shard n, or at a pause.
  std::uint32_t view(std::size_t n, std::uint32_t item) const {
    return view_[n * stride_ + item];
  }
  bool holds(std::size_t n, std::uint32_t item) const {
    return view(n, item) == n;
  }
  /// The item's one holder, at a pause or after the run. With one row per
  /// node, FATAL when two nodes hold it, or none (lost, or in flight).
  std::uint32_t holder(std::uint32_t item) const;
  /// Flip every view to `to` at a pause; returns the previous holder.
  std::uint32_t transfer_at_pause(std::uint32_t item, std::uint32_t to);

  /// Route `req` from its requester (runs on shard req.from).
  void request(DirRequest req);
  /// Node n hears that `owner` holds the item (runs on shard n). Guarded:
  /// a stale update neither displaces a holder nor points n at itself.
  void update(std::size_t n, std::uint32_t item, std::uint32_t owner);
  /// Crash or repair node n (runs on shard n, or before the run).
  void set_alive(std::size_t n, bool up) { alive_[n] = up ? 1 : 0; }
  /// Summed over nodes, after the run.
  Counters counters() const;

 private:
  SimTime now(std::size_t n) { return sim_->shard(n).now(); }
  void set_view(std::size_t n, std::uint32_t item, std::uint32_t owner) {
    view_[n * stride_ + item] = owner;
  }
  void arrive(std::size_t d, DirRequest req);
  void on_nack(DirRequest req);
  void fetch(std::size_t d, DirRequest req);
  void release(std::size_t d, const DirRequest& req, std::uint32_t to,
               bool failover);
  void install(std::size_t d, const DirRequest& req, bool failover);
  void ack(std::size_t d, const DirRequest& req);

  std::size_t nodes_;
  std::size_t items_;
  std::size_t stride_ = 0;           // items_ with one row per node, else 0
  std::vector<std::uint32_t> view_;  // [node * stride + item]
  ShardedSimulator* sim_ = nullptr;
  SimDuration hop_ = 0;
  RetryPolicy retry_;
  DirectoryClient* client_ = nullptr;
  std::vector<std::uint8_t> alive_;  // [node]
  std::vector<Counters> counters_;   // [node]
};

/// Contiguous placement: item i on node i * nodes / items.
std::vector<std::uint32_t> contiguous_owners(std::size_t items,
                                             std::size_t nodes);

}  // namespace ecoscale
