// Inter-worker synchronisation over UNIMEM (paper §4.1: the multi-layer
// interconnect carries "load and store commands, DMA operations, interrupts,
// and synchronization between the Workers").
#pragma once

#include <span>
#include <vector>

#include "common/units.h"
#include "unimem/pgas.h"

namespace ecoscale {

struct SyncResult {
  SimTime finish = 0;       // when every participant has been released
  Picojoules energy = 0.0;
  std::uint64_t messages = 0;
};

/// Software cost of handling one barrier token at the receiving worker
/// (interrupt / mailbox poll + combine update). This is what makes a
/// centralised barrier bottleneck on its hub.
inline constexpr SimDuration kBarrierTokenProcess = nanoseconds(100);

/// Sender-side cost of issuing one token (descriptor build + doorbell
/// write): occupies the sending worker's CPU, so a worker issuing several
/// tokens — the flat hub's release broadcast, or a tree parent releasing
/// children across multiple levels — serializes its sends instead of
/// emitting them all at the same instant. Charged identically by both
/// barriers (tree_barrier historically skipped it in the release phase).
inline constexpr SimDuration kBarrierTokenIssue = nanoseconds(25);

/// Tree barrier across a set of workers: workers combine arrival tokens up
/// the interconnect tree (pairwise over the network) and a release wave
/// fans back down. `arrivals[i]` is when worker i reaches the barrier.
SyncResult tree_barrier(PgasSystem& pgas,
                        std::span<const WorkerCoord> workers,
                        std::span<const SimTime> arrivals);

/// Flat (centralised) barrier baseline: everyone signals worker 0, worker 0
/// broadcasts release. Messages scale linearly but all converge on one
/// endpoint — the contrast case for the hierarchical claim.
SyncResult flat_barrier(PgasSystem& pgas,
                        std::span<const WorkerCoord> workers,
                        std::span<const SimTime> arrivals);

}  // namespace ecoscale
