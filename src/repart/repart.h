// Online locality-aware repartitioner (ROADMAP item 3, DESIGN.md §7.11).
//
// Closes the loop from the observability counters (PR 3) and the
// migration/re-homing primitives (PR 4, C3) to *runtime* placement: live
// traffic records windowed load vectors (repart/load.h), and at every
// epoch pause of the ShardedRuntime (engine run_until() segments) the
// repartitioner folds them, runs hierarchical diffusion over the
// interconnect tree (repart/diffusion.h) and executes a rate-limited,
// hysteresis-damped migration plan through a RepartClient — the KV
// store's block re-homing, the mesh workload's cell moves, or anything
// else that owns items.
//
// Determinism (the property bench_repart and repart_test pin by
// fingerprint):
//  * inputs: the folded windows, queue depths and believed-alive sets are
//    deterministic simulation state, read only while every shard is
//    paused at the same simulated instant;
//  * decisions: the plan is a pure function of those inputs — fixed
//    iteration order, integer/double arithmetic, explicit tie-breaks, no
//    RNG, no wall clock;
//  * effects: ownership flips happen at the pause (a consistent cut: all
//    events before the boundary are done, all at-or-after see the new
//    table), and the timed migration charges are scheduled at the
//    boundary. Every plan folds into `stats().plan_fingerprint`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fingerprint.h"
#include "common/units.h"
#include "repart/diffusion.h"
#include "repart/load.h"
#include "unimem/directory.h"

namespace ecoscale {
class ShardedRuntime;
struct RuntimeConfig;
}

namespace ecoscale::repart {

struct RepartConfig {
  /// Epoch period (the ShardedRuntime pause cadence). Must be > 0 to
  /// install().
  SimDuration epoch = microseconds(50);
  /// Rate limit: most migrations one epoch may execute.
  std::size_t max_moves = 32;
  /// Hysteresis floor on capacity-normalized imbalance (max/mean - 1);
  /// below it an epoch plans no balance moves.
  double imbalance = 0.10;
  /// Diffusion damping per epoch (repart/diffusion.h).
  double alpha = 0.5;
  /// Epochs an item stays frozen after it moves.
  std::size_t cooldown = 2;
  /// Locality moves need this much windowed access-weight advantage at
  /// the preferred node, and the preference must repeat on two
  /// consecutive epochs (transient skew never migrates).
  std::uint64_t min_gain = 16;

  /// The RuntimeConfig::repartition_* knob surface.
  static RepartConfig from(const RuntimeConfig& rc);
};

/// What the repartitioner drives. Implementations own the items' actual
/// state: they copy it and charge the timed cost of the move.
class RepartClient {
 public:
  virtual ~RepartClient() = default;
  /// Bytes that travel when `item` migrates (plan weighting and byte-hop
  /// accounting).
  virtual std::uint64_t item_bytes(std::uint32_t item) const = 0;
  /// Execute a migration decided at epoch pause time `at`. The owner
  /// table has already flipped; the implementation copies state and
  /// schedules its timed charges at or after `at` (no shard is running).
  virtual void migrate_item(std::uint32_t item, std::uint32_t from,
                            std::uint32_t to, SimTime at) = 0;
};

class Repartitioner {
 public:
  /// Reads the policy knobs from rt.config().runtime.repartition_*.
  Repartitioner(ShardedRuntime& rt, std::size_t items,
                std::vector<std::uint32_t> initial_owner);
  Repartitioner(ShardedRuntime& rt, RepartConfig cfg, std::size_t items,
                std::vector<std::uint32_t> initial_owner);

  void set_client(RepartClient* client) { client_ = client; }
  /// Install as rt's epoch policy (cfg.epoch must be > 0). Call once,
  /// before rt.run().
  void install();

  const RepartConfig& config() const { return cfg_; }
  std::size_t item_count() const { return dir_.items(); }
  std::uint32_t owner(std::uint32_t item) const { return dir_.holder(item); }
  /// The items' ownership directory. Only epoch moves flip it, at the
  /// pause, so every node's view agrees between pauses.
  const ShardedDirectory& directory() const { return dir_; }
  LoadTracker& tracker() { return tracker_; }

  enum class MoveKind : std::uint8_t { kLocality, kBalance };
  struct Move {
    std::uint64_t epoch = 0;
    std::uint32_t item = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    MoveKind kind = MoveKind::kLocality;
  };
  /// Every executed move, in execution order (tests assert rate limits,
  /// cooldowns and hysteresis on this).
  const std::vector<Move>& moves() const { return moves_; }

  struct Stats {
    std::uint64_t epochs = 0;
    std::uint64_t moves = 0;
    std::uint64_t locality_moves = 0;
    std::uint64_t balance_moves = 0;
    std::uint64_t moved_bytes = 0;
    /// Migration traffic in byte-hops (bytes x inter-node hop count).
    std::uint64_t move_byte_hops = 0;
    /// FNV-1a fold of (epoch, item, from, to) over every executed move —
    /// the plan's determinism witness.
    std::uint64_t plan_fingerprint = kFnvOffset;
    /// Capacity-normalized imbalance observed at the last epoch.
    double last_imbalance = 0.0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void on_epoch(std::size_t epoch, SimTime at);
  void plan_locality(std::size_t epoch, std::vector<Move>& plan);
  void plan_balance(std::size_t epoch, std::vector<Move>& plan);
  void execute(const std::vector<Move>& plan, SimTime at);

  ShardedRuntime& rt_;
  RepartConfig cfg_;
  TreeLevels levels_;
  LoadTracker tracker_;
  RepartClient* client_ = nullptr;
  ShardedDirectory dir_;
  /// First epoch the item may move again (cooldown hysteresis).
  std::vector<std::uint64_t> movable_at_;
  /// Last epoch's preferred node per item (two-epoch confirmation) —
  /// item_count() entries, kNoPref when the item had no traffic.
  std::vector<std::uint32_t> prev_pref_;
  static constexpr std::uint32_t kNoPref = 0xFFFFFFFFu;
  /// Items already chosen this epoch (locality wins over balance).
  std::vector<bool> planned_;

  LoadTracker::Window window_;
  std::vector<double> node_load_;
  std::vector<double> node_cap_;
  std::vector<double> node_target_;
  std::vector<Move> moves_;
  Stats stats_;
};

}  // namespace ecoscale::repart
