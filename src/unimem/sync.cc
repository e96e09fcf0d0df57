#include "unimem/sync.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "interconnect/packet.h"
#include "sim/timeline.h"

namespace ecoscale {

namespace {

struct TokenSend {
  SimTime finish = 0;
  Picojoules energy = 0.0;
};

TokenSend send_token(PgasSystem& pgas, std::vector<Timeline>& cpus,
                     WorkerCoord from, WorkerCoord to, SimTime ready) {
  // Issuing the token occupies the sender's CPU: back-to-back sends from
  // the same worker (a parent's release wave, the flat hub's broadcast)
  // serialize here instead of departing at the same instant.
  const SimTime go =
      cpus[pgas.flat(from)].reserve_until(ready, kBarrierTokenIssue);
  Packet p{PacketType::kSync, from, to, 8};
  const auto t = pgas.network().send(pgas.flat(from), pgas.flat(to), p, go);
  // The receiver's token handler runs serially per worker.
  const SimTime done =
      cpus[pgas.flat(to)].reserve_until(t.arrival, kBarrierTokenProcess);
  return TokenSend{done, t.energy};
}

std::vector<Timeline> make_cpus(const PgasSystem& pgas) {
  return std::vector<Timeline>(pgas.node_count() *
                               pgas.workers_per_node());
}

}  // namespace

SyncResult tree_barrier(PgasSystem& pgas,
                        std::span<const WorkerCoord> workers,
                        std::span<const SimTime> arrivals) {
  ECO_CHECK(workers.size() == arrivals.size());
  ECO_CHECK(!workers.empty());
  SyncResult result;
  auto cpus = make_cpus(pgas);
  // Combine phase: binary tree over the worker list; worker order follows
  // the physical hierarchy (PgasSystem flattening is locality-preserving),
  // so early combine partners are physically close.
  std::vector<SimTime> ready(arrivals.begin(), arrivals.end());
  std::vector<std::size_t> alive(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) alive[i] = i;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> levels;
  while (alive.size() > 1) {
    std::vector<std::size_t> next;
    levels.emplace_back();
    for (std::size_t i = 0; i + 1 < alive.size(); i += 2) {
      const std::size_t a = alive[i];
      const std::size_t b = alive[i + 1];
      const auto s = send_token(pgas, cpus, workers[b], workers[a], ready[b]);
      ready[a] = std::max(ready[a], s.finish);
      result.energy += s.energy;
      ++result.messages;
      levels.back().emplace_back(a, b);
      next.push_back(a);
    }
    if (alive.size() % 2 == 1) next.push_back(alive.back());
    alive = std::move(next);
  }
  // Release phase: mirrored broadcast down the same pairing, in reverse
  // level order.
  const std::size_t root = alive.front();
  std::vector<SimTime> released(workers.size(), 0);
  released[root] = ready[root];
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    for (const auto& [parent, child] : *it) {
      const auto s = send_token(pgas, cpus, workers[parent], workers[child],
                                released[parent]);
      released[child] = s.finish;
      result.energy += s.energy;
      ++result.messages;
    }
  }
  result.finish = *std::max_element(released.begin(), released.end());
  result.finish = std::max(result.finish, ready[root]);
  return result;
}

SyncResult flat_barrier(PgasSystem& pgas,
                        std::span<const WorkerCoord> workers,
                        std::span<const SimTime> arrivals) {
  ECO_CHECK(workers.size() == arrivals.size());
  ECO_CHECK(!workers.empty());
  SyncResult result;
  auto cpus = make_cpus(pgas);
  const WorkerCoord hub = workers.front();
  SimTime all_in = arrivals[0];
  for (std::size_t i = 1; i < workers.size(); ++i) {
    const auto s = send_token(pgas, cpus, workers[i], hub, arrivals[i]);
    all_in = std::max(all_in, s.finish);
    result.energy += s.energy;
    ++result.messages;
  }
  // The hub issues every release itself. send_token charges the hub's
  // CPU for each issue, so the broadcast serializes on the hub's
  // timeline — the same accounting the tree parents now pay.
  SimTime done = all_in;
  for (std::size_t i = 1; i < workers.size(); ++i) {
    const auto s = send_token(pgas, cpus, hub, workers[i], all_in);
    done = std::max(done, s.finish);
    result.energy += s.energy;
    ++result.messages;
  }
  result.finish = done;
  return result;
}

}  // namespace ecoscale
