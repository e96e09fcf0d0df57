// Unstructured-mesh workload for the repartitioning benchmarks.
//
// A ring of cells with seeded random chords — the 1-D skeleton of an
// unstructured CFD mesh: mostly short-range adjacency plus a sprinkling
// of longer-range couplings. Each node runs self-paced *step* events: it
// updates every cell it owns inside the current activity window and reads
// each neighbor's halo value, paying a remote-read cost (and shipping a
// halo notification over the inter-node fabric) whenever the neighbor
// lives elsewhere. The activity window is a front that sweeps the ring as
// a function of *simulated time* — like a shock or flame front moving
// through a mesh — so the hot region migrates across the initial
// contiguous partition and a static placement degrades mid-run while a
// reactive one follows the front.
//
// Determinism: per-node state is shard-owned, the front position is a
// pure function of simulated time, the chord graph is seeded, and halo
// notifications ride the engine's deterministic cross-shard merge — the
// report fingerprint is byte-identical run after run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "repart/repart.h"

namespace ecoscale {
class ShardedRuntime;
}

namespace ecoscale::repart {

struct MeshConfig {
  std::size_t cells = 2048;
  /// Extra random short-range edges on top of the ring.
  std::size_t chords = 1024;
  /// Maximum ring distance a chord may span.
  std::size_t chord_span = 16;
  std::uint64_t seed = 1234;

  /// Fixed cost of one step event (pacing), plus per-owned-active-cell
  /// update cost and per-remote-halo-read penalty.
  SimDuration step_base = nanoseconds(400);
  SimDuration cell_cost = nanoseconds(40);
  SimDuration remote_read_cost = nanoseconds(6);

  /// Bytes per halo value (access weighting + byte-hop accounting) and
  /// bytes of state that travel when a cell migrates.
  std::uint64_t halo_bytes = 8;
  std::uint64_t cell_state_bytes = 512;

  /// Fraction of the ring active at once, and the simulated time the
  /// front takes to lap the ring (0 = stationary front at cell 0).
  double front_width = 0.10;
  SimDuration front_period = 0;

  /// Steps schedule themselves until this simulated horizon.
  SimDuration duration = microseconds(600);
};

/// The mesh as a RepartClient: cells are the items. Without a
/// repartitioner it runs on a fixed contiguous partition; a reactive run
/// constructs the Repartitioner with contiguous_owners(cells, nodes).
class MeshWorkload : public RepartClient {
 public:
  /// `repart` may be null (static partitioning). When set, its item count
  /// must equal cfg.cells and the workload records into its tracker.
  MeshWorkload(ShardedRuntime& rt, Repartitioner* repart, MeshConfig cfg);

  /// Schedule step 0 on every node. Call before rt.run().
  void start();

  // RepartClient
  std::uint64_t item_bytes(std::uint32_t) const override {
    return cfg_.cell_state_bytes;
  }
  void migrate_item(std::uint32_t item, std::uint32_t from, std::uint32_t to,
                    SimTime at) override;

  struct Report {
    std::uint64_t updates = 0;       // cell updates executed
    std::uint64_t steps = 0;         // step events across nodes
    std::uint64_t remote_reads = 0;  // halo reads crossing nodes
    std::uint64_t total_reads = 0;   // all halo reads
    std::uint64_t halo_byte_hops = 0;
    std::uint64_t halo_in = 0;       // halo notifications received
    std::uint64_t migrations_in = 0;
    SimTime finish = 0;              // last step completion
    std::uint64_t fingerprint = 0;   // state hash (+ plan hash if reactive)
    double updates_per_sec = 0.0;
    double remote_read_rate = 0.0;   // remote_reads / total_reads
  };
  /// Deterministic fold over per-node state (call after rt.run()).
  Report report() const;

 private:
  std::uint64_t front_center(SimTime t) const;
  void step(std::size_t node, SimTime now);

  struct alignas(64) NodeState {
    std::uint64_t updates = 0;
    std::uint64_t steps = 0;
    std::uint64_t remote_reads = 0;
    std::uint64_t total_reads = 0;
    std::uint64_t halo_byte_hops = 0;
    std::uint64_t halo_in = 0;
    std::uint64_t migrations_in = 0;
    /// Settle charge from inbound migrations, absorbed by the next step.
    SimDuration migrate_backlog = 0;
    SimTime finish = 0;
    /// Per-step remote-halo tally per peer (scratch, shard-owned).
    std::vector<std::uint32_t> peer;
  };

  ShardedRuntime& rt_;
  Repartitioner* repart_;
  MeshConfig cfg_;
  /// Cell ownership: the repartitioner's directory, else the contiguous
  /// partition that nobody flips (built only without a repartitioner).
  std::optional<ShardedDirectory> static_dir_;
  const ShardedDirectory* dir_;
  // CSR adjacency (ring + chords), neighbor lists sorted ascending.
  std::vector<std::uint32_t> nbr_offset_;
  std::vector<std::uint32_t> nbr_;
  std::vector<NodeState> nodes_;
};

}  // namespace ecoscale::repart
