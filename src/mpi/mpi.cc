#include "mpi/mpi.h"

#include <algorithm>

namespace ecoscale {

namespace {
/// Energy category of a point-to-point message, interned once.
CounterId p2p_energy_id() {
  static const CounterId id = CounterRegistry::intern("mpi.p2p");
  return id;
}
}  // namespace

MpiWorld::MpiWorld(std::size_t ranks, MpiConfig config)
    : ranks_(ranks), config_(config) {
  ECO_CHECK(ranks_ >= 1);
  NetworkConfig net;
  net.level_params = {{0, config_.link}};
  network_ = std::make_unique<Network>(make_crossbar(ranks_), net);
  send_cpu_.resize(ranks_);
  recv_cpu_.resize(ranks_);
}

MsgResult MpiWorld::send(std::size_t src, std::size_t dst, Bytes bytes,
                         SimTime ready) {
  ECO_CHECK(src < ranks_ && dst < ranks_);
  MsgResult r;
  ++messages_;
  bytes_ += bytes;
  // Sender-side software processing occupies the rank's router CPU: a rank
  // issuing many messages serialises their o_send costs (LogP overhead).
  const SimTime sent =
      send_cpu_[src].reserve_until(ready, config_.send_overhead);
  if (src == dst) {
    r.sent = sent;
    r.delivered = sent;
    return r;
  }
  SimTime t = sent;
  if (bytes > config_.eager_threshold) {
    // Rendezvous: RTS/CTS handshake before the payload moves.
    Packet rts{PacketType::kMessage, {}, {}, 32};
    const auto a = network_->send(src, dst, rts, t);
    const auto b = network_->send(dst, src, rts, a.arrival);
    t = b.arrival;
    r.energy += a.energy + b.energy;
  }
  Packet payload{PacketType::kMessage, {}, {}, bytes};
  const auto d = network_->send(src, dst, payload, t);
  r.sent = sent;
  r.delivered =
      recv_cpu_[dst].reserve_until(d.arrival, config_.recv_overhead);
  r.energy += d.energy;
  energy_.charge(p2p_energy_id(), r.energy);
  return r;
}

CollectiveResult MpiWorld::allreduce(Bytes bytes,
                                     std::span<const SimTime> arrivals) {
  // Recursive doubling over the largest power of two p2 <= P. A rank
  // r >= p2 first folds its contribution into rank r - p2, and gets the
  // result back from it at the end (MPICH's scheme for non-power-of-two
  // sizes), so every rank's result depends on every contribution.
  ECO_CHECK(arrivals.size() == ranks_);
  CollectiveResult result;
  std::vector<SimTime> t(arrivals.begin(), arrivals.end());
  std::size_t p2 = 1;
  while (2 * p2 <= ranks_) p2 <<= 1;
  const auto one_way = [&](std::size_t from, std::size_t to) {
    const auto m = send(from, to, bytes, t[from]);
    t[to] = std::max(t[to], m.delivered);
    result.energy += m.energy;
    result.messages += 1;
    result.bytes_on_wire += bytes;
  };
  for (std::size_t r = p2; r < ranks_; ++r) one_way(r, r - p2);
  for (std::size_t stride = 1; stride < p2; stride <<= 1) {
    std::vector<SimTime> next = t;
    for (std::size_t r = 0; r < p2; ++r) {
      const std::size_t peer = r ^ stride;
      if (peer < r) continue;
      // Pairwise exchange.
      const auto a = send(r, peer, bytes, t[r]);
      const auto b = send(peer, r, bytes, t[peer]);
      const SimTime done = std::max(a.delivered, b.delivered);
      next[r] = std::max(next[r], done);
      next[peer] = std::max(next[peer], done);
      result.energy += a.energy + b.energy;
      result.messages += 2;
      result.bytes_on_wire += 2 * bytes;
    }
    t = std::move(next);
  }
  for (std::size_t r = p2; r < ranks_; ++r) one_way(r - p2, r);
  result.per_rank = t;
  result.finish = *std::max_element(t.begin(), t.end());
  return result;
}

CollectiveResult MpiWorld::alltoall(Bytes bytes_per_pair,
                                    std::span<const SimTime> arrivals) {
  // Pairwise exchange: P-1 rounds, round k pairs r with r XOR k (padded to
  // the next power of two; skipped partners idle that round).
  ECO_CHECK(arrivals.size() == ranks_);
  CollectiveResult result;
  std::vector<SimTime> t(arrivals.begin(), arrivals.end());
  std::size_t p2 = 1;
  while (p2 < ranks_) p2 <<= 1;
  for (std::size_t k = 1; k < p2; ++k) {
    std::vector<SimTime> next = t;
    for (std::size_t r = 0; r < ranks_; ++r) {
      const std::size_t peer = r ^ k;
      if (peer >= ranks_ || peer < r) continue;
      const auto a = send(r, peer, bytes_per_pair, t[r]);
      const auto b = send(peer, r, bytes_per_pair, t[peer]);
      next[r] = std::max(next[r], b.delivered);
      next[peer] = std::max(next[peer], a.delivered);
      result.energy += a.energy + b.energy;
      result.messages += 2;
      result.bytes_on_wire += 2 * bytes_per_pair;
    }
    t = std::move(next);
  }
  result.per_rank = t;
  result.finish = *std::max_element(t.begin(), t.end());
  return result;
}

CartTopology::CartTopology(std::vector<std::size_t> dims, bool periodic)
    : dims_(std::move(dims)), periodic_(periodic) {
  ECO_CHECK(!dims_.empty());
  for (std::size_t d : dims_) ECO_CHECK(d >= 1);
}

std::size_t CartTopology::size() const {
  std::size_t n = 1;
  for (std::size_t d : dims_) n *= d;
  return n;
}

std::size_t CartTopology::rank_of(std::span<const std::size_t> coords) const {
  ECO_CHECK(coords.size() == dims_.size());
  std::size_t rank = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    ECO_CHECK(coords[i] < dims_[i]);
    rank = rank * dims_[i] + coords[i];
  }
  return rank;
}

std::vector<std::size_t> CartTopology::coords_of(std::size_t rank) const {
  ECO_CHECK(rank < size());
  std::vector<std::size_t> coords(dims_.size());
  for (std::size_t i = dims_.size(); i-- > 0;) {
    coords[i] = rank % dims_[i];
    rank /= dims_[i];
  }
  return coords;
}

std::optional<std::size_t> CartTopology::shift(std::size_t rank,
                                               std::size_t dim,
                                               int direction) const {
  ECO_CHECK(dim < dims_.size());
  ECO_CHECK(direction == 1 || direction == -1);
  auto coords = coords_of(rank);
  const std::size_t extent = dims_[dim];
  if (direction == 1) {
    if (coords[dim] + 1 == extent) {
      if (!periodic_) return std::nullopt;
      coords[dim] = 0;
    } else {
      ++coords[dim];
    }
  } else {
    if (coords[dim] == 0) {
      if (!periodic_) return std::nullopt;
      coords[dim] = extent - 1;
    } else {
      --coords[dim];
    }
  }
  return rank_of(coords);
}

std::vector<std::size_t> CartTopology::neighbors(std::size_t rank) const {
  std::vector<std::size_t> out;
  for (std::size_t dim = 0; dim < dims_.size(); ++dim) {
    for (int dir : {-1, 1}) {
      if (auto n = shift(rank, dim, dir); n && *n != rank) {
        out.push_back(*n);
      }
    }
  }
  return out;
}

}  // namespace ecoscale
