#include "repart/repart.h"

#include <algorithm>

#include "common/check.h"
#include "common/fingerprint.h"
#include "interconnect/network.h"
#include "obs/trace.h"
#include "runtime/scheduler.h"
#include "runtime/sharded.h"

namespace ecoscale::repart {

namespace {

struct RepartTraceNames {
  CounterId epoch = CounterRegistry::intern("repart.epoch");
  CounterId plan = CounterRegistry::intern("repart.plan");
  CounterId migrate = CounterRegistry::intern("repart.migrate");
  CounterId imbalance = CounterRegistry::intern("repart.imbalance");
};
[[maybe_unused]] const RepartTraceNames& repart_names() {
  static const RepartTraceNames names;
  return names;
}

/// Controller lane: the epoch loop runs on no node in particular.
constexpr std::uint16_t kRepartTid = 0xFFE0;

}  // namespace

RepartConfig RepartConfig::from(const RuntimeConfig& rc) {
  RepartConfig cfg;
  cfg.epoch = rc.repartition_epoch;
  cfg.max_moves = rc.repartition_max_moves;
  cfg.imbalance = rc.repartition_imbalance;
  cfg.alpha = rc.repartition_alpha;
  cfg.cooldown = rc.repartition_cooldown;
  cfg.min_gain = rc.repartition_min_gain;
  return cfg;
}

Repartitioner::Repartitioner(ShardedRuntime& rt, std::size_t items,
                             std::vector<std::uint32_t> initial_owner)
    : Repartitioner(rt, RepartConfig::from(rt.config().runtime), items,
                    std::move(initial_owner)) {}

Repartitioner::Repartitioner(ShardedRuntime& rt, RepartConfig cfg,
                             std::size_t items,
                             std::vector<std::uint32_t> initial_owner)
    : rt_(rt),
      cfg_(cfg),
      levels_(TreeLevels::from_network(rt.internode(), rt.node_count())),
      tracker_(rt.node_count(), items),
      owner_(std::move(initial_owner)),
      movable_at_(items, 0),
      prev_pref_(items, kNoPref),
      planned_(items, false) {
  ECO_CHECK_MSG(owner_.size() == items, "one initial owner per item");
  for (const std::uint32_t o : owner_) ECO_CHECK(o < rt_.node_count());
  ECO_CHECK(cfg_.alpha >= 0.0 && cfg_.alpha <= 1.0);
}

void Repartitioner::install() {
  ECO_CHECK_MSG(cfg_.epoch > 0, "repartitioning needs a nonzero epoch");
  rt_.set_epoch_policy(
      cfg_.epoch, [this](std::size_t epoch, SimTime at) { on_epoch(epoch, at); });
}

void Repartitioner::on_epoch(std::size_t epoch, SimTime at) {
  ++stats_.epochs;
  tracker_.collect(window_);
  const std::size_t n = rt_.node_count();
  const std::size_t items = owner_.size();

  // Balance mass per node: windowed work of its items, plus (optionally)
  // the scheduler backlog. Capacity: what the heartbeat monitor believes
  // is alive — a degraded node keeps its offered load but loses capacity,
  // which is exactly what makes diffusion drain it under faults.
  node_load_.assign(n, 0.0);
  node_cap_.assign(n, 0.0);
  for (std::size_t i = 0; i < items; ++i) {
    node_load_[owner_[i]] += static_cast<double>(window_.work[i]);
  }
  for (std::size_t d = 0; d < n; ++d) {
    RuntimeSystem& rs = rt_.runtime(d);
    node_cap_[d] = static_cast<double>(rs.believed_alive_workers());
    if (cfg_.queue_depth_weight > 0) {
      std::uint64_t depth = 0;
      for (std::size_t w = 0; w < rs.worker_count(); ++w) {
        depth += rs.queue_depth(w);
      }
      node_load_[d] +=
          static_cast<double>(depth * cfg_.queue_depth_weight);
    }
  }

  // Capacity-normalized imbalance (max per-alive-worker load over the
  // mean), the hysteresis gate. Load on a node with zero believed-alive
  // capacity is unconditionally imbalanced.
  double total_load = 0.0, total_cap = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    total_load += node_load_[d];
    total_cap += node_cap_[d];
  }
  double imb = 0.0;
  if (total_load > 0.0 && total_cap > 0.0) {
    const double mean = total_load / total_cap;
    double worst = 0.0;
    bool dead_loaded = false;
    for (std::size_t d = 0; d < n; ++d) {
      if (node_cap_[d] > 0.0) {
        worst = std::max(worst, node_load_[d] / node_cap_[d]);
      } else if (node_load_[d] > 0.0) {
        dead_loaded = true;
      }
    }
    imb = worst / mean - 1.0;
    if (dead_loaded) imb = std::max(imb, 1e6);
    imb = std::max(imb, 0.0);
  }
  stats_.last_imbalance = imb;

  node_target_ = diffusion_targets(levels_, node_load_, node_cap_, cfg_.alpha);

  std::vector<Move> plan;
  plan.reserve(cfg_.max_moves);
  std::fill(planned_.begin(), planned_.end(), false);
  plan_locality(epoch, plan);
  if (imb >= cfg_.imbalance) plan_balance(epoch, plan);

  ECO_TRACE_SPAN(obs::Cat::kRepart, repart_names().epoch,
                 (obs::Lane{obs::kSimPid, kRepartTid}),
                 at > cfg_.epoch ? at - cfg_.epoch : 0, at, epoch);
  ECO_TRACE_COUNTER(obs::Cat::kRepart, repart_names().imbalance,
                    (obs::Lane{obs::kSimPid, kRepartTid}), at,
                    static_cast<std::uint64_t>(
                        std::min(imb, 1e6) * 1e3));
  ECO_TRACE_INSTANT(obs::Cat::kRepart, repart_names().plan,
                    (obs::Lane{obs::kSimPid, kRepartTid}), at, plan.size());
  execute(plan, at);
}

void Repartitioner::plan_locality(std::size_t epoch, std::vector<Move>& plan) {
  const std::size_t n = rt_.node_count();
  struct Cand {
    std::uint64_t gain;
    std::uint32_t item;
    std::uint32_t from;
    std::uint32_t to;
  };
  std::vector<Cand> cands;
  for (std::uint32_t i = 0; i < owner_.size(); ++i) {
    const std::uint64_t* acc = &window_.access[static_cast<std::size_t>(i) * n];
    // Preferred node: argmax of windowed access weight, ties to the
    // lowest id; kNoPref when the item saw no traffic (no preference is
    // recorded, so stale affinities don't linger into quiet windows).
    std::uint32_t pref = kNoPref;
    std::uint64_t best = 0;
    for (std::uint32_t o = 0; o < n; ++o) {
      if (acc[o] > best) {
        best = acc[o];
        pref = o;
      }
    }
    const std::uint32_t own = owner_[i];
    if (pref != kNoPref && pref == prev_pref_[i] && pref != own &&
        best >= acc[own] + cfg_.min_gain && epoch >= movable_at_[i] &&
        node_cap_[pref] > 0.0) {
      const auto hops = static_cast<std::uint64_t>(
          rt_.internode().hop_count(own, pref));
      cands.push_back(
          Cand{(best - acc[own]) * std::max<std::uint64_t>(hops, 1), i, own,
               pref});
    }
    prev_pref_[i] = pref;
  }
  // Biggest traffic-distance wins first; item id breaks ties.
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    return a.item < b.item;
  });
  for (const Cand& c : cands) {
    if (plan.size() >= cfg_.max_moves) break;
    plan.push_back(Move{static_cast<std::uint64_t>(epoch), c.item, c.from,
                        c.to, MoveKind::kLocality});
    planned_[c.item] = true;
    // Keep the balance pass honest: it sees post-locality loads.
    const auto w = static_cast<double>(window_.work[c.item]);
    node_load_[c.from] -= w;
    node_load_[c.to] += w;
  }
}

void Repartitioner::plan_balance(std::size_t epoch, std::vector<Move>& plan) {
  const std::size_t n = rt_.node_count();
  if (plan.size() >= cfg_.max_moves) return;
  // Movable items per donor node, heaviest first.
  std::vector<std::vector<std::uint32_t>> pool(n);
  for (std::uint32_t i = 0; i < owner_.size(); ++i) {
    if (planned_[i] || window_.work[i] == 0 || epoch < movable_at_[i]) {
      continue;
    }
    pool[owner_[i]].push_back(i);
  }
  for (auto& p : pool) {
    std::sort(p.begin(), p.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (window_.work[a] != window_.work[b]) {
        return window_.work[a] > window_.work[b];
      }
      return a < b;
    });
  }
  // Donor hysteresis: a *live* node only donates while its surplus over
  // the diffusion target is a real fraction of the mean node load —
  // otherwise one dead-loaded node (imbalance pegged at 1e6) would let
  // the pass churn every survivor toward its target each epoch, and each
  // churned block costs a migration DMA plus stale-owner forwards. A
  // zero-capacity donor always drains: its surplus is its whole load.
  double mean_load = 0.0;
  for (std::size_t d = 0; d < n; ++d) mean_load += node_load_[d];
  mean_load /= static_cast<double>(n);
  std::vector<std::size_t> next(n, 0);
  while (plan.size() < cfg_.max_moves) {
    // Donor: largest surplus over its diffusion target with items left.
    std::size_t donor = n;
    double best_surplus = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
      if (next[d] >= pool[d].size()) continue;
      const double surplus = node_load_[d] - node_target_[d];
      if (node_cap_[d] > 0.0 && surplus < cfg_.imbalance * mean_load) {
        continue;
      }
      if (surplus > best_surplus) {
        best_surplus = surplus;
        donor = d;
      }
    }
    if (donor == n) break;
    // Skip items too big for the remaining surplus (sorted descending, so
    // everything behind them is a candidate).
    while (next[donor] < pool[donor].size() &&
           static_cast<double>(window_.work[pool[donor][next[donor]]]) >
               2.0 * best_surplus) {
      ++next[donor];
    }
    if (next[donor] >= pool[donor].size()) continue;
    const std::uint32_t item = pool[donor][next[donor]++];
    const auto w = static_cast<double>(window_.work[item]);
    // Receiver: enough deficit to absorb at least half the item, nearest
    // in the tree first (intra-chassis before cross-chassis — the
    // hierarchical part of the flow), then deepest deficit, then id.
    std::size_t recv = n;
    int best_hops = 0;
    double best_deficit = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      if (r == donor || node_cap_[r] <= 0.0) continue;
      const double deficit = node_target_[r] - node_load_[r];
      if (deficit < 0.5 * w) continue;
      const int hops = rt_.internode().hop_count(donor, r);
      const bool better =
          recv == n || hops < best_hops ||
          (hops == best_hops && deficit > best_deficit);
      if (better) {
        recv = r;
        best_hops = hops;
        best_deficit = deficit;
      }
    }
    if (recv == n) continue;
    plan.push_back(Move{static_cast<std::uint64_t>(epoch), item,
                        static_cast<std::uint32_t>(donor),
                        static_cast<std::uint32_t>(recv), MoveKind::kBalance});
    planned_[item] = true;
    node_load_[donor] -= w;
    node_load_[recv] += w;
  }
}

void Repartitioner::execute(const std::vector<Move>& plan, SimTime at) {
  for (const Move& m : plan) {
    owner_[m.item] = m.to;
    movable_at_[m.item] = m.epoch + cfg_.cooldown;
    const std::uint64_t bytes = client_ ? client_->item_bytes(m.item) : 0;
    const auto hops =
        static_cast<std::uint64_t>(rt_.internode().hop_count(m.from, m.to));
    ++stats_.moves;
    if (m.kind == MoveKind::kLocality) {
      ++stats_.locality_moves;
    } else {
      ++stats_.balance_moves;
    }
    stats_.moved_bytes += bytes;
    stats_.move_byte_hops += bytes * hops;
    std::uint64_t& h = stats_.plan_fingerprint;
    h = fnv_word(h, m.epoch);
    h = fnv_word(h, m.item);
    h = fnv_word(h, m.from);
    h = fnv_word(h, m.to);
    ECO_TRACE_INSTANT(obs::Cat::kRepart, repart_names().migrate,
                      (obs::Lane{obs::kSimPid, kRepartTid}), at, m.item);
    moves_.push_back(m);
    if (client_ != nullptr) client_->migrate_item(m.item, m.from, m.to, at);
  }
}

}  // namespace ecoscale::repart
