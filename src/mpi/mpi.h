// Inter-Compute-Node message layer (paper §4.1, Figure 3).
//
// "MPI is used for communication between Compute Nodes via CPU-based
// routers following the application topology."
//
// MpiWorld models ranks = Compute Nodes joined by an inter-node network.
// Point-to-point transfers use a LogP-style cost model (software send /
// receive overhead on the CPU-based routers, rendezvous handshake for bulk
// messages) on top of the shared Network substrate; the two collectives
// the benches run implement the classic algorithms (recursive-doubling
// allreduce, pairwise-exchange alltoall) so message counts and critical
// paths are faithful.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/energy.h"
#include "common/units.h"
#include "interconnect/network.h"
#include "sim/timeline.h"

namespace ecoscale {

struct MpiConfig {
  /// Software overheads on the CPU-based router (LogP o_s / o_r).
  SimDuration send_overhead = microseconds(1);
  SimDuration recv_overhead = microseconds(1);
  /// Messages larger than this use rendezvous (adds one RTT handshake).
  Bytes eager_threshold = 16 * kKiB;
  /// Inter-node link parameters.
  LinkParams link;

  MpiConfig() {
    link.hop_latency = nanoseconds(500);
    link.bandwidth = Bandwidth::from_gib_per_s(5.0);
    link.pj_per_byte = 30.0;  // off-node transfer energy
    link.pj_per_packet = 200.0;
  }
};

struct MsgResult {
  SimTime sent = 0;      // sender-side completion (overhead done)
  SimTime delivered = 0; // receiver-side data availability
  Picojoules energy = 0.0;
};

struct CollectiveResult {
  SimTime finish = 0;          // when the last rank completes
  std::uint64_t messages = 0;
  Bytes bytes_on_wire = 0;
  Picojoules energy = 0.0;
  std::vector<SimTime> per_rank;  // completion per rank
};

class MpiWorld {
 public:
  /// `ranks` Compute Nodes on a crossbar-style inter-node fabric.
  explicit MpiWorld(std::size_t ranks, MpiConfig config = {});

  std::size_t size() const { return ranks_; }

  // --- point to point ------------------------------------------------------
  MsgResult send(std::size_t src, std::size_t dst, Bytes bytes,
                 SimTime ready);

  // --- collectives -----------------------------------------------------------
  CollectiveResult allreduce(Bytes bytes, std::span<const SimTime> arrivals);
  CollectiveResult alltoall(Bytes bytes_per_pair,
                            std::span<const SimTime> arrivals);

  // --- accounting --------------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_; }
  Bytes bytes_sent() const { return bytes_; }
  const EnergyMeter& energy() const { return energy_; }
  Network& network() { return *network_; }

 private:
  std::size_t ranks_;
  MpiConfig config_;
  std::unique_ptr<Network> network_;
  // LogP-style occupancy: the CPU-based router of each rank serialises its
  // own send and receive processing.
  std::vector<Timeline> send_cpu_;
  std::vector<Timeline> recv_cpu_;
  std::uint64_t messages_ = 0;
  Bytes bytes_ = 0;
  EnergyMeter energy_;
};

/// MPI-3 Cartesian topology helper (paper §4.4: "leveraging the new
/// topology abstractions" of MPI-3.0).
class CartTopology {
 public:
  CartTopology(std::vector<std::size_t> dims, bool periodic);

  std::size_t size() const;
  std::size_t ndims() const { return dims_.size(); }
  const std::vector<std::size_t>& dims() const { return dims_; }

  std::size_t rank_of(std::span<const std::size_t> coords) const;
  std::vector<std::size_t> coords_of(std::size_t rank) const;

  /// Neighbour rank one step along `dim` in `direction` (+1/-1);
  /// nullopt at a non-periodic boundary.
  std::optional<std::size_t> shift(std::size_t rank, std::size_t dim,
                                   int direction) const;

  /// All existing nearest neighbours of a rank.
  std::vector<std::size_t> neighbors(std::size_t rank) const;

 private:
  std::vector<std::size_t> dims_;
  bool periodic_;
};

}  // namespace ecoscale
