#include "serve/loadgen.h"

#include <algorithm>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/reduce.h"
#include "obs/trace.h"

namespace ecoscale::serve {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct LoadTraceNames {
  CounterId request = CounterRegistry::intern("serve.request");
};
[[maybe_unused]] const LoadTraceNames& load_trace_names() {
  static const LoadTraceNames names;
  return names;
}

}  // namespace

LoadGen::LoadGen(ShardedRuntime& rt, KvStore& kv, LoadGenConfig config)
    : rt_(rt),
      kv_(kv),
      config_(config),
      zipf_(static_cast<std::size_t>(kv.config().key_space),
            config.zipf_skew),
      origins_(rt.node_count()) {
  ECO_CHECK(config_.get_fraction >= 0.0 && config_.delete_fraction >= 0.0 &&
            config_.get_fraction + config_.delete_fraction <= 1.0);
  for (std::size_t n = 0; n < origins_.size(); ++n) {
    origins_[n].rng.reseed(config_.seed + 0x9e37 * (n + 1));
    origins_[n].issue_time.reserve(budget_per_node());
  }
  kv_.set_response_handler(
      [this](std::size_t origin, const KvResponse& resp) {
        on_response(origin, resp);
      });
}

void LoadGen::start() {
  const std::size_t nodes = origins_.size();
  for (std::size_t n = 0; n < nodes; ++n) {
    if (budget_per_node() == 0) continue;
    if (config_.mode == LoadGenConfig::Mode::kOpenLoop) {
      ECO_CHECK_MSG(config_.offered_load > 0.0,
                    "open loop needs a positive offered load");
      // Stagger origins so the very first arrivals do not align.
      const SimTime t0 = 1 + static_cast<SimTime>(n) * 17;
      rt_.shard(n).schedule_at(t0, [this, n] { arrival(n); });
    } else {
      const std::size_t clients =
          std::min(config_.clients_per_node, budget_per_node());
      for (std::size_t c = 0; c < clients; ++c) {
        const SimTime t0 = 1 + static_cast<SimTime>(n) * 17 +
                           static_cast<SimTime>(c) * 29;
        rt_.shard(n).schedule_at(t0, [this, n] { issue_one(n); });
      }
    }
  }
}

void LoadGen::issue_one(std::size_t origin) {
  Origin& o = origins_[origin];
  if (o.issued >= budget_per_node()) return;
  const std::size_t seq = o.issued++;
  // Globally unique, nonzero request id: per-origin stride.
  const TaskId request =
      1 + static_cast<TaskId>(seq) * origins_.size() + origin;

  // Zipf rank -> key through a hash scatter so the hot ranks are spread
  // across owners instead of clustering on low key ids. Affine draws
  // scatter within the origin's current phase window instead.
  const std::uint64_t rank = zipf_(o.rng);
  std::uint64_t key = mix64(rank) % kv_.config().key_space;
  if (config_.origin_affinity > 0.0 &&
      o.rng.uniform() < config_.origin_affinity) {
    const std::uint64_t nodes = origins_.size();
    const std::uint64_t window =
        std::max<std::uint64_t>(kv_.config().key_space / nodes, 1);
    const std::uint64_t phase =
        config_.phase_period > 0
            ? static_cast<std::uint64_t>(rt_.shard(origin).now()) /
                  config_.phase_period
            : 0;
    const std::uint64_t base = ((origin + phase) % nodes) * window;
    key = base + mix64(rank) % window;
  }
  const double r = o.rng.uniform();
  KvOp op = KvOp::kSet;
  if (r < config_.get_fraction) {
    op = KvOp::kGet;
  } else if (r < config_.get_fraction + config_.delete_fraction) {
    op = KvOp::kDelete;
  }
  const std::uint64_t value = mix64(request);

  o.issue_time.push_back(rt_.shard(origin).now());
  kv_.issue(origin, op, key, value, request);
}

void LoadGen::arrival(std::size_t origin) {
  Origin& o = origins_[origin];
  // Bursty open loop: each arrival instant may carry extra requests.
  std::uint64_t batch = 1;
  if (config_.burst_mean > 0.0) {
    batch += o.rng.bounded_poisson(config_.burst_mean, config_.burst_cap);
  }
  for (std::uint64_t i = 0; i < batch && o.issued < budget_per_node(); ++i) {
    issue_one(origin);
  }
  if (o.issued >= budget_per_node()) return;
  const double per_origin_rate =
      config_.offered_load / static_cast<double>(origins_.size());
  const double gap_seconds = o.rng.exponential(1.0 / per_origin_rate);
  const auto gap =
      std::max<SimDuration>(1, static_cast<SimDuration>(gap_seconds * 1e12));
  rt_.shard(origin).schedule_after(gap, [this, origin] { arrival(origin); });
}

void LoadGen::on_response(std::size_t origin, const KvResponse& resp) {
  Origin& o = origins_[origin];
  const std::size_t seq =
      static_cast<std::size_t>((resp.request - 1 - origin) / origins_.size());
  const SimTime issued_at = o.issue_time[seq];
  o.last_completion = std::max(o.last_completion, resp.completed);
  if (resp.shed) {
    ++o.shed;
  } else {
    ++o.completed;
    o.latency.record(static_cast<std::uint64_t>(resp.completed - issued_at));
  }
  ECO_TRACE_SPAN(obs::Cat::kServe, load_trace_names().request,
                 (obs::Lane{static_cast<std::uint16_t>(origin),
                            static_cast<std::uint16_t>(resp.shed ? 1 : 0)}),
                 issued_at, resp.completed,
                 static_cast<std::uint32_t>(resp.request));
  if (config_.mode == LoadGenConfig::Mode::kClosedLoop &&
      o.issued < budget_per_node()) {
    // The answered client issues its next request at once.
    issue_one(origin);
  }
}

LoadGen::Report LoadGen::report() const {
  // Balanced-tree fold over origins: merged histogram, summed counters
  // and a combined fingerprint, all pure functions of per-origin state.
  struct Leaf {
    std::uint64_t issued = 0, completed = 0, shed = 0;
    LatencyHistogram latency;
    SimTime last_completion = 0;
    std::uint64_t hash = kFnvOffset;
  };
  Leaf folded = reduce_tree<Leaf>(
      origins_.size(), Leaf{},
      [&](std::size_t n) {
        const Origin& o = origins_[n];
        Leaf leaf;
        leaf.issued = o.issued;
        leaf.completed = o.completed;
        leaf.shed = o.shed;
        leaf.latency = o.latency;
        leaf.last_completion = o.last_completion;
        std::uint64_t h = kFnvOffset;
        h = fnv_word(h, o.latency.fingerprint());
        h = fnv_word(h, o.issued);
        h = fnv_word(h, o.completed);
        h = fnv_word(h, o.shed);
        h = fnv_word(h, static_cast<std::uint64_t>(o.last_completion));
        leaf.hash = h;
        return leaf;
      },
      [](Leaf a, const Leaf& b) {
        a.issued += b.issued;
        a.completed += b.completed;
        a.shed += b.shed;
        a.latency.merge(b.latency);
        a.last_completion = std::max(a.last_completion, b.last_completion);
        a.hash = fnv_word(a.hash, b.hash);
        return a;
      });
  Report report;
  report.issued = folded.issued;
  report.completed = folded.completed;
  report.shed = folded.shed;
  report.latency = folded.latency;
  report.last_completion = folded.last_completion;
  report.fingerprint = fnv_word(folded.hash, kv_.apply_log_hash());
  return report;
}

}  // namespace ecoscale::serve
