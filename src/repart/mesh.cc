#include "repart/mesh.h"

#include <algorithm>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/reduce.h"
#include "common/rng.h"
#include "interconnect/network.h"
#include "obs/trace.h"
#include "runtime/sharded.h"
#include "sim/simulator.h"

namespace ecoscale::repart {

namespace {

struct MeshTraceNames {
  CounterId settle = CounterRegistry::intern("repart.settle");
};
const MeshTraceNames& mesh_names() {
  static const MeshTraceNames names;
  return names;
}

constexpr std::uint16_t kSettleTid = 0xFFE1;

}  // namespace

MeshWorkload::MeshWorkload(ShardedRuntime& rt, Repartitioner* repart,
                           MeshConfig cfg)
    : rt_(rt),
      repart_(repart),
      cfg_(cfg),
      dir_(repart != nullptr ? &repart->directory() : nullptr) {
  const std::size_t cells = cfg_.cells;
  const std::size_t n = rt_.node_count();
  ECO_CHECK(cells >= n && n >= 1);
  if (repart_ != nullptr) {
    ECO_CHECK_MSG(repart_->item_count() == cells,
                  "repartitioner items must be the mesh cells");
    repart_->set_client(this);
  } else {
    static_dir_.emplace(n, contiguous_owners(cells, n));
    dir_ = &*static_dir_;
  }

  // Ring edges plus seeded random chords of bounded ring span. Undirected:
  // both endpoints read each other's halo.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(cells + cfg_.chords);
  for (std::uint32_t c = 0; c < cells; ++c) {
    edges.emplace_back(c, static_cast<std::uint32_t>((c + 1) % cells));
  }
  Rng rng(cfg_.seed);
  for (std::size_t i = 0; i < cfg_.chords; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_u64(cells));
    const std::uint64_t span =
        2 + rng.uniform_u64(std::max<std::size_t>(cfg_.chord_span, 1));
    const auto b = static_cast<std::uint32_t>((a + span) % cells);
    if (a != b) edges.emplace_back(a, b);
  }
  std::vector<std::uint32_t> degree(cells, 0);
  for (const auto& [a, b] : edges) {
    ++degree[a];
    ++degree[b];
  }
  nbr_offset_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    nbr_offset_[c + 1] = nbr_offset_[c] + degree[c];
  }
  nbr_.resize(nbr_offset_.back());
  std::vector<std::uint32_t> fill = nbr_offset_;
  for (const auto& [a, b] : edges) {
    nbr_[fill[a]++] = b;
    nbr_[fill[b]++] = a;
  }
  for (std::size_t c = 0; c < cells; ++c) {
    std::sort(nbr_.begin() + nbr_offset_[c], nbr_.begin() + nbr_offset_[c + 1]);
  }

  nodes_.resize(n);
  for (NodeState& st : nodes_) st.peer.assign(n, 0);
}

std::uint64_t MeshWorkload::front_center(SimTime t) const {
  if (cfg_.front_period == 0) return 0;
  return (t % cfg_.front_period) * cfg_.cells / cfg_.front_period;
}

void MeshWorkload::start() {
  for (std::size_t n = 0; n < rt_.node_count(); ++n) {
    rt_.shard(n).schedule_at(0, [this, n] { step(n, rt_.shard(n).now()); });
  }
}

void MeshWorkload::step(std::size_t n, SimTime now) {
  NodeState& st = nodes_[n];
  ++st.steps;
  const std::size_t cells = cfg_.cells;
  const auto active =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     static_cast<double>(cells) *
                                     cfg_.front_width));
  const std::uint64_t center = front_center(now);
  const std::uint64_t lo = center + cells - active / 2;

  SimDuration dur = cfg_.step_base + st.migrate_backlog;
  st.migrate_backlog = 0;
  std::fill(st.peer.begin(), st.peer.end(), 0);
  std::uint64_t owned = 0;
  std::uint64_t remote = 0;
  for (std::uint64_t k = 0; k < active; ++k) {
    const auto cell = static_cast<std::uint32_t>((lo + k) % cells);
    if (!dir_->holds(n, cell)) continue;
    ++owned;
    ++st.updates;
    if (repart_ != nullptr) {
      repart_->tracker().record_work(n, cell, cfg_.cell_cost);
    }
    for (std::uint32_t e = nbr_offset_[cell]; e < nbr_offset_[cell + 1]; ++e) {
      const std::uint32_t nb = nbr_[e];
      ++st.total_reads;
      // Reading nb's halo from node n is the pull that makes nb prefer n.
      if (repart_ != nullptr) {
        repart_->tracker().record_access(
            n, nb, static_cast<std::uint32_t>(n), cfg_.halo_bytes);
      }
      const std::uint32_t m = dir_->view(n, nb);
      if (m != n) {
        ++remote;
        ++st.remote_reads;
        st.halo_byte_hops +=
            cfg_.halo_bytes *
            static_cast<std::uint64_t>(rt_.internode().hop_count(n, m));
        ++st.peer[m];
      }
    }
  }
  dur += owned * cfg_.cell_cost + remote * cfg_.remote_read_cost;

  // One halo notification per peer that served us remote reads this step.
  for (std::size_t m = 0; m < st.peer.size(); ++m) {
    const std::uint32_t c = st.peer[m];
    if (c == 0) continue;
    rt_.post(n, m, 0, [this, m, c] { nodes_[m].halo_in += c; });
  }

  const SimTime next = now + dur;
  st.finish = next;
  if (next < cfg_.duration) {
    rt_.shard(n).schedule_after(dur, [this, n] {
      step(n, rt_.shard(n).now());
    });
  }
}

void MeshWorkload::migrate_item(std::uint32_t item, std::uint32_t from,
                                std::uint32_t to, SimTime at) {
  (void)item;
  // The cell state rides the inter-node fabric; both ends absorb the
  // settle cost into their next step (charged at the epoch pause — a
  // consistent cut, so the charge is thread-count-invariant).
  const SimDuration wire = rt_.inter_node_latency(from, to) +
                           nanoseconds(cfg_.cell_state_bytes / 64 + 1);
  nodes_[from].migrate_backlog += wire / 2;
  nodes_[to].migrate_backlog += wire;
  ++nodes_[to].migrations_in;
  ECO_TRACE_SPAN(obs::Cat::kRepart, mesh_names().settle,
                 (obs::Lane{obs::kSimPid, kSettleTid}), at, at + wire, item);
}

MeshWorkload::Report MeshWorkload::report() const {
  Report folded = reduce_tree<Report>(
      nodes_.size(), Report{},
      [&](std::size_t i) {
        const NodeState& st = nodes_[i];
        Report leaf;
        leaf.updates = st.updates;
        leaf.steps = st.steps;
        leaf.remote_reads = st.remote_reads;
        leaf.total_reads = st.total_reads;
        leaf.halo_byte_hops = st.halo_byte_hops;
        leaf.halo_in = st.halo_in;
        leaf.migrations_in = st.migrations_in;
        leaf.finish = st.finish;
        std::uint64_t h = kFnvOffset;
        h = fnv_word(h, st.updates);
        h = fnv_word(h, st.steps);
        h = fnv_word(h, st.remote_reads);
        h = fnv_word(h, st.total_reads);
        h = fnv_word(h, st.halo_in);
        h = fnv_word(h, st.migrations_in);
        h = fnv_word(h, st.finish);
        leaf.fingerprint = h;
        return leaf;
      },
      [](Report a, Report b) {
        a.updates += b.updates;
        a.steps += b.steps;
        a.remote_reads += b.remote_reads;
        a.total_reads += b.total_reads;
        a.halo_byte_hops += b.halo_byte_hops;
        a.halo_in += b.halo_in;
        a.migrations_in += b.migrations_in;
        a.finish = std::max(a.finish, b.finish);
        a.fingerprint = fnv_word(a.fingerprint, b.fingerprint);
        return a;
      });
  if (repart_ != nullptr) {
    folded.fingerprint =
        fnv_word(folded.fingerprint, repart_->stats().plan_fingerprint);
  }
  if (folded.finish > 0) {
    folded.updates_per_sec =
        static_cast<double>(folded.updates) / to_seconds(folded.finish);
  }
  if (folded.total_reads > 0) {
    folded.remote_read_rate = static_cast<double>(folded.remote_reads) /
                              static_cast<double>(folded.total_reads);
  }
  return folded;
}

}  // namespace ecoscale::repart
