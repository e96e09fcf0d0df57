#include "unimem/pgas.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.h"
#include "obs/trace.h"

namespace ecoscale {

namespace {

/// Energy categories of the access paths, interned once per process so the
/// per-access lane charges dense CounterIds instead of hashing strings.
struct PgasCounters {
  CounterId global_load = CounterRegistry::intern("pgas.global.load");
  CounterId global_store = CounterRegistry::intern("pgas.global.store");
  CounterId local_load = CounterRegistry::intern("pgas.local.load");
  CounterId local_store = CounterRegistry::intern("pgas.local.store");
  CounterId remote_load = CounterRegistry::intern("pgas.remote.load");
  CounterId remote_store = CounterRegistry::intern("pgas.remote.store");
  CounterId atomic_local = CounterRegistry::intern("pgas.atomic.local");
  CounterId atomic_remote = CounterRegistry::intern("pgas.atomic.remote");
  CounterId page_migration = CounterRegistry::intern("pgas.page_migration");
  CounterId task_migration = CounterRegistry::intern("pgas.task_migration");
  CounterId retry = CounterRegistry::intern("pgas.retry");
  CounterId failover = CounterRegistry::intern("pgas.failover");
};

const PgasCounters& counters() {
  static const PgasCounters c;
  return c;
}

}  // namespace

PgasSystem::PgasSystem(PgasConfig config) : config_(config) {
  ECO_CHECK(config_.nodes >= 1 && config_.workers_per_node >= 1);
  ECO_CHECK(config_.chassis >= 1);
  ECO_CHECK_MSG(config_.nodes % config_.chassis == 0,
                "chassis must divide the node count evenly");
  // Multi-level tree: L0 groups workers into nodes; L1 joins nodes (into
  // chassis, when configured); L2 joins chassis.
  std::vector<std::size_t> radices{config_.workers_per_node};
  NetworkConfig net_cfg;
  net_cfg.level_params = {{0, config_.l0_link}, {1, config_.l1_link}};
  if (config_.chassis > 1) {
    radices.push_back(config_.nodes / config_.chassis);
    radices.push_back(config_.chassis);
    net_cfg.level_params[2] = config_.l2_link;
  } else {
    radices.push_back(config_.nodes);
  }
  network_ = std::make_unique<Network>(make_tree(radices), net_cfg);

  // Pooled lazy state (DESIGN.md §7.7): size the slot vectors but build
  // nothing — caches, DRAM channels and coherence domains are constructed
  // on first touch by cache_at/dram_at/domain_at, so untouched workers
  // cost one null pointer each. Construction is purely functional (no
  // timed side effects, thread-safe counter interning only), so the
  // first-touch order never changes simulation results.
  const std::size_t total = worker_count();
  caches_.resize(total);
  drams_.resize(total);
  alloc_cursor_.assign(total, 0);
  translator_ =
      std::make_unique<ProgressiveTranslator>(config_.translation_latencies);
  if (config_.scope == CoherenceScope::kGlobal) {
    // The "cannot scale" baseline: one machine-wide snoop domain. It holds
    // a pointer to every cache, so this scope is eager by construction —
    // which is the point the baseline makes.
    std::vector<Cache*> all;
    all.reserve(total);
    for (std::size_t i = 0; i < total; ++i) all.push_back(&cache_at(i));
    domains_.push_back(std::make_unique<CoherenceDomain>(
        std::move(all), CoherenceMode::kSnoopBroadcast));
    return;
  }
  domains_.resize(config_.nodes);
}

Cache& PgasSystem::cache_at(std::size_t flat_index) {
  ECO_CHECK(flat_index < caches_.size());
  auto& slot = caches_[flat_index];
  if (slot == nullptr) {
    slot = std::make_unique<Cache>(coord(flat_index).str() + ".l2",
                                   config_.cache);
  }
  return *slot;
}

DramChannel& PgasSystem::dram_at(std::size_t flat_index) {
  ECO_CHECK(flat_index < drams_.size());
  auto& slot = drams_[flat_index];
  if (slot == nullptr) {
    slot = std::make_unique<DramChannel>(coord(flat_index).str() + ".dram",
                                         config_.dram);
  }
  return *slot;
}

CoherenceDomain& PgasSystem::domain_at(NodeId node) {
  if (config_.scope == CoherenceScope::kGlobal) return *domains_[0];
  ECO_CHECK(node < domains_.size());
  auto& slot = domains_[node];
  if (slot == nullptr) {
    // The domain snoops every cache of the node, so first touch of a node
    // forces its workers_per_node caches — per-node, not per-machine.
    std::vector<Cache*> node_caches;
    node_caches.reserve(config_.workers_per_node);
    for (std::size_t w = 0; w < config_.workers_per_node; ++w) {
      node_caches.push_back(
          &cache_at(static_cast<std::size_t>(node) * config_.workers_per_node +
                    w));
    }
    slot = std::make_unique<CoherenceDomain>(std::move(node_caches),
                                             config_.node_coherence);
  }
  return *slot;
}

GlobalAddress PgasSystem::alloc(NodeId node, WorkerId worker, Bytes size) {
  ECO_CHECK(node < config_.nodes && worker < config_.workers_per_node);
  ECO_CHECK(size > 0);
  const std::size_t idx = flat(WorkerCoord{node, worker});
  // Page-align each allocation so ownership is per-allocation clean.
  std::uint64_t& cursor = alloc_cursor_[idx];
  cursor = (cursor + kPageSize - 1) & ~(kPageSize - 1);
  const GlobalAddress base(node, worker, cursor);
  cursor += size;
  const PageId first = page_of(base);
  const PageId last = page_of(base + (size - 1));
  for (PageId p = first; p <= last; ++p) {
    if (!directory_.is_registered(p)) directory_.register_page(p, node);
  }
  return base;
}

std::vector<std::uint8_t>& PgasSystem::page_data(PageId page) {
  auto& data = store_[page];
  if (data.empty()) data.resize(kPageSize, 0);
  return data;
}

void PgasSystem::write_bytes(GlobalAddress addr,
                             std::span<const std::uint8_t> data) {
  std::uint64_t raw = addr.raw();
  std::size_t written = 0;
  while (written < data.size()) {
    const PageId page = raw >> kPageShift;
    const std::size_t in_page = raw & (kPageSize - 1);
    const std::size_t chunk =
        std::min<std::size_t>(kPageSize - in_page, data.size() - written);
    auto& pd = page_data(page);
    std::copy_n(data.data() + written, chunk, pd.data() + in_page);
    written += chunk;
    raw += chunk;
  }
}

void PgasSystem::read_bytes(GlobalAddress addr,
                            std::span<std::uint8_t> out) const {
  std::uint64_t raw = addr.raw();
  std::size_t done = 0;
  while (done < out.size()) {
    const PageId page = raw >> kPageShift;
    const std::size_t in_page = raw & (kPageSize - 1);
    const std::size_t chunk =
        std::min<std::size_t>(kPageSize - in_page, out.size() - done);
    auto it = store_.find(page);
    if (it == store_.end()) {
      std::fill_n(out.data() + done, chunk, 0);
    } else {
      std::copy_n(it->second.data() + in_page, chunk, out.data() + done);
    }
    done += chunk;
    raw += chunk;
  }
}

SimTime PgasSystem::fail_over_dead_owner(WorkerCoord who, PageId page,
                                         SimTime now) {
  const NodeId dead = owner_of(page);
  // Bounded retries with linear backoff: each attempt waits out a timeout
  // against the unresponsive owner. A repair racing the retries wins —
  // the access then proceeds against the original owner, no failover.
  for (std::size_t attempt = 0; attempt < config_.fault_retry.max_retries;
       ++attempt) {
    const SimTime deadline = now + config_.fault_retry.wait(attempt);
    ECO_TRACE_SPAN(obs::Cat::kRetry, counters().retry,
                   (obs::Lane{who.node, who.worker}), now, deadline,
                   static_cast<std::uint32_t>(attempt + 1));
    ++remote_retries_;
    now = deadline;
    // The retry hook fires before the liveness re-check: a scripted repair
    // installed by the litmus harness lands exactly where a concurrent
    // repair event would, including one racing the final attempt.
    if (observer_ != nullptr && observer_->on_retry) {
      observer_->on_retry(who, page, attempt + 1, now);
    }
    if (health_->node_up(dead)) return now;
  }
  // Retries exhausted: re-home the page at the requester's node (or the
  // lowest surviving node if the requester's own node is gone). The data
  // is rebuilt from the lowest surviving node's replica: one DRAM read
  // there, a page DMA if the replica is elsewhere, one DRAM write at the
  // new home. The functional copy in store_ is global, so correctness is
  // unaffected — this models the *cost* of replica recovery.
  NodeId target = who.node;
  NodeId replica = dead;
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    if (health_->node_up(n)) {
      replica = static_cast<NodeId>(n);
      break;
    }
  }
  ECO_CHECK_MSG(replica != dead, "no surviving node for page failover");
  if (!health_->node_up(target)) target = replica;
  const SimTime start = now;
  const WorkerCoord rep_w{replica, 0};
  const WorkerCoord dst_w{target, 0};
  const auto rd = dram(rep_w).access(now, kPageSize);
  SimTime t = rd.finish;
  Picojoules e = rd.energy;
  if (replica != target) {
    Packet p{PacketType::kDma, rep_w, dst_w, kPageSize};
    const auto tr = network_->send(flat(rep_w), flat(dst_w), p, t);
    t = tr.arrival;
    e += tr.energy;
  }
  const auto wr = dram(dst_w).access(t, kPageSize);
  t = wr.finish;
  e += wr.energy;
  directory_.migrate(page, target);
  cached_page_ = ~0ull;  // memo may hold the dead owner
  ++page_failovers_;
  energy_.charge(counters().failover, e);
  ECO_TRACE_SPAN(obs::Cat::kFailover, counters().failover,
                 (obs::Lane{target, 0}), start, t,
                 static_cast<std::uint32_t>(page));
  if (observer_ != nullptr && observer_->on_ownership_change) {
    observer_->on_ownership_change(page, dead, target, start, t,
                                   /*failover=*/true);
  }
  return t;
}

MemAccess PgasSystem::access(WorkerCoord who, GlobalAddress addr, Bytes size,
                             bool write, bool bulk, SimTime now) {
  ECO_CHECK(who.node < config_.nodes &&
            who.worker < config_.workers_per_node);
  const PageId page = page_of(addr);
  NodeId owner = owner_of(page);
  if (health_ != nullptr && owner != who.node && !health_->node_up(owner)) {
    now = fail_over_dead_owner(who, page, now);
    owner = owner_of(page);  // failover may have re-homed the page
  }
  MemAccess result;
  const WorkerCoord home = addr.home();
  // Trace spans start at issue time, before translation advances `now`.
  const SimTime issued = now;
  const auto notify = [&] {
    if (observer_ != nullptr && observer_->on_access) {
      observer_->on_access(PgasObserver::Access{
          who, page,
          bulk ? PgasObserver::Kind::kDma
               : (write ? PgasObserver::Kind::kStore
                        : PgasObserver::Kind::kLoad),
          issued, result.finish, owner, result.remote});
    }
  };

  // Progressive address translation: each access resolves exactly the
  // hierarchy levels its route traverses (no central translation agent).
  const WorkerCoord effective_home{
      owner, static_cast<WorkerId>(home.worker % config_.workers_per_node)};
  now += translator_->total_latency(who, effective_home);

  if (config_.scope == CoherenceScope::kGlobal && !bulk) {
    // Machine-wide coherence: every miss/upgrade snoops every cache in the
    // machine, each probe+response paying cross-machine wire latency. The
    // probes fan out in parallel but their responses must all be
    // collected, so latency is one probe round trip plus a serialisation
    // term that grows with machine size (response collection at the
    // requester).
    auto& domain = *domains_[0];
    const std::size_t me = flat(who);
    const auto acc = write ? domain.write(me, addr.raw())
                           : domain.read(me, addr.raw());
    result.cache_hit = acc.hit;
    if (acc.hit && acc.snoop_messages == 0) {
      result.finish = now + config_.cache.hit_latency;
      result.energy = config_.cache.pj_per_hit;
    } else {
      // Win the machine-wide ordering point, then broadcast + collect.
      const SimTime granted = global_order_.reserve_until(
          now, config_.global_order_occupancy);
      const SimDuration collect =
          config_.global_snoop_latency +
          (acc.snoop_messages / 2) * nanoseconds(4);  // response funnel
      const auto d = dram(home).access(granted + collect,
                                       config_.cache.line_size);
      result.finish = d.finish;
      result.energy = d.energy +
                      config_.global_snoop_energy *
                          static_cast<double>(acc.snoop_messages);
    }
    energy_.charge(write ? counters().global_store : counters().global_load,
                   result.energy);
    ++local_accesses_;
    notify();
    return result;
  }

  if (owner == who.node) {
    // Node-local: runs in the node's coherence domain. The requester's
    // cache may hit; a miss goes to the home worker's DRAM.
    ++local_accesses_;
    if (bulk) {
      // DMA bypasses the cache.
      const auto d = dram(home).access(now, size);
      result.finish = d.finish;
      result.energy = d.energy;
    } else {
      auto& domain = domain_at(owner);
      const auto acc = write ? domain.write(who.worker, addr.raw())
                             : domain.read(who.worker, addr.raw());
      result.cache_hit = acc.hit;
      if (acc.hit) {
        result.finish = now + config_.cache.hit_latency;
        result.energy = config_.cache.pj_per_hit;
      } else {
        const auto d = dram(home).access(now, config_.cache.line_size);
        result.finish = d.finish;
        result.energy = d.energy + config_.cache.pj_per_hit;
      }
      // Intra-node hop if the home worker differs from the requester and
      // we actually went past the cache.
      if (!acc.hit && home.worker != who.worker) {
        Packet p{write ? PacketType::kWrite : PacketType::kRead, who, home,
                 config_.cache.line_size};
        const auto t = network_->send(flat(who), flat(home), p,
                                      result.finish);
        result.finish = t.arrival;
        result.energy += t.energy;
      }
    }
    energy_.charge(write ? counters().local_store : counters().local_load,
                   result.energy);
    notify();
    return result;
  }

  // Remote: route to the owner node's copy. Not cacheable at the
  // requester (UNIMEM), so every access pays the network.
  ++remote_accesses_;
  result.remote = true;
  // The physical copy lives at the home worker of the address within the
  // owning node (after migration the data is re-homed at the owner node's
  // worker 0 DRAM channel — we keep the home worker index for locality).
  const WorkerCoord where = effective_home;
  const Bytes req_payload = write ? size : 0;
  Packet req{write ? PacketType::kWrite
                   : (bulk ? PacketType::kDma : PacketType::kRead),
             who, where, bulk ? size : req_payload};
  const auto fwd = network_->send(flat(who), flat(where), req, now);
  const auto d = dram(where).access(fwd.arrival, size);
  Packet resp{write ? PacketType::kWriteAck : PacketType::kReadResp, where,
              who, write ? 0 : size};
  const auto back = network_->send(flat(where), flat(who), resp, d.finish);
  result.finish = back.arrival;
  result.energy = fwd.energy + d.energy + back.energy;
  energy_.charge(write ? counters().remote_store : counters().remote_load,
                 result.energy);
  // Every remote access is a span on the requesting worker's lane: the
  // full translate + route + DRAM + respond round trip the paper's C3
  // task-vs-data argument turns on.
  ECO_TRACE_SPAN(obs::Cat::kUnimem,
                 write ? counters().remote_store : counters().remote_load,
                 (obs::Lane{who.node, who.worker}), issued, result.finish,
                 size);
  notify();
  return result;
}

MemAccess PgasSystem::load(WorkerCoord who, GlobalAddress addr, Bytes size,
                           SimTime now) {
  return access(who, addr, size, /*write=*/false, /*bulk=*/false, now);
}

MemAccess PgasSystem::store(WorkerCoord who, GlobalAddress addr, Bytes size,
                            SimTime now) {
  return access(who, addr, size, /*write=*/true, /*bulk=*/false, now);
}

MemAccess PgasSystem::dma(WorkerCoord who, GlobalAddress src_or_dst,
                          Bytes size, bool write, SimTime now) {
  return access(who, src_or_dst, size, write, /*bulk=*/true, now);
}

AtomicResult PgasSystem::atomic_rmw(WorkerCoord who, GlobalAddress addr,
                                    AtomicOp op, std::uint64_t operand,
                                    SimTime now, std::uint64_t compare) {
  const PageId page = page_of(addr);
  NodeId owner = owner_of(page);
  if (health_ != nullptr && owner != who.node && !health_->node_up(owner)) {
    now = fail_over_dead_owner(who, page, now);
    owner = owner_of(page);
  }
  ECO_CHECK_MSG((addr.offset() & 7) == 0, "atomic must be 8-byte aligned");

  // Functional part: exact RMW against the backing store.
  std::uint64_t old = 0;
  std::array<std::uint8_t, 8> word{};
  read_bytes(addr, word);
  std::memcpy(&old, word.data(), 8);
  std::uint64_t next = old;
  AtomicResult result;
  result.old_value = old;
  switch (op) {
    case AtomicOp::kFetchAdd:
      next = old + operand;
      break;
    case AtomicOp::kSwap:
      next = operand;
      break;
    case AtomicOp::kCompareSwap:
      if (old == compare) {
        next = operand;
        result.swapped = true;
      }
      break;
    case AtomicOp::kFetchOr:
      next = old | operand;
      break;
  }
  std::memcpy(word.data(), &next, 8);
  write_bytes(addr, word);

  // Timing part: the RMW executes at the owning node's memory controller
  // (near-memory atomic unit); remote callers pay one 8-byte round trip.
  constexpr SimDuration kAluLatency = nanoseconds(4);
  if (owner == who.node) {
    const auto home = addr.home();
    const auto d = dram(home).access(now, 8);
    result.finish = d.finish + kAluLatency;
    result.energy = d.energy;
    energy_.charge(counters().atomic_local, result.energy);
  } else {
    result.remote = true;
    ++remote_accesses_;
    const WorkerCoord where{
        owner,
        static_cast<WorkerId>(addr.home().worker % config_.workers_per_node)};
    Packet req{PacketType::kSync, who, where, 16};  // op + operand
    const auto fwd = network_->send(flat(who), flat(where), req, now);
    const auto d = dram(where).access(fwd.arrival, 8);
    Packet resp{PacketType::kSync, where, who, 8};
    const auto back =
        network_->send(flat(where), flat(who), resp, d.finish + kAluLatency);
    result.finish = back.arrival;
    result.energy = fwd.energy + d.energy + back.energy;
    energy_.charge(counters().atomic_remote, result.energy);
  }
  if (observer_ != nullptr && observer_->on_access) {
    observer_->on_access(PgasObserver::Access{
        who, page, PgasObserver::Kind::kAtomic, now, result.finish, owner,
        result.remote});
  }
  return result;
}

MigrationResult PgasSystem::migrate_page(PageId page, NodeId dst,
                                         SimTime now) {
  const auto owner = directory_.owner(page);
  ECO_CHECK_MSG(owner.has_value(), "migrating unregistered page");
  MigrationResult result;
  if (*owner == dst) {
    result.finish = now;
    return result;
  }
  // 1. Flush the old owner's cached lines of this page (UNIMEM: only the
  //    owner may have cached it). Cost: one invalidate walk + writebacks.
  //    A never-touched cache slot has nothing cached — skip it rather
  //    than force its construction just to invalidate nothing.
  const std::size_t lines = kPageSize / config_.cache.line_size;
  std::uint64_t dirty = 0;
  for (std::size_t w = 0; w < config_.workers_per_node; ++w) {
    const auto& slot =
        caches_[static_cast<std::size_t>(*owner) * config_.workers_per_node +
                w];
    if (slot == nullptr) continue;
    Cache& c = *slot;
    for (std::size_t l = 0; l < lines; ++l) {
      const std::uint64_t line =
          (static_cast<std::uint64_t>(page) << kPageShift) /
              config_.cache.line_size +
          l;
      if (c.invalidate(line)) ++dirty;
    }
  }
  // 2. Transfer the page from a worker of the old owner to one of the new.
  const WorkerCoord src{static_cast<NodeId>(*owner), 0};
  const WorkerCoord dst_w{dst, 0};
  const auto rd = dram(src).access(now, kPageSize + dirty *
                                            config_.cache.line_size);
  Packet p{PacketType::kDma, src, dst_w, kPageSize};
  const auto t = network_->send(flat(src), flat(dst_w), p, rd.finish);
  const auto wr = dram(dst_w).access(t.arrival, kPageSize);
  // 3. Flip ownership and drop the one-entry owner memo — it may hold the
  //    pre-migration owner of this very page.
  directory_.migrate(page, dst);
  cached_page_ = ~0ull;
  result.finish = wr.finish;
  result.bytes_moved = kPageSize;
  result.energy = rd.energy + t.energy + wr.energy;
  energy_.charge(counters().page_migration, result.energy);
  ECO_TRACE_SPAN(obs::Cat::kUnimem, counters().page_migration,
                 (obs::Lane{dst, 0}), now, result.finish, kPageSize);
  if (observer_ != nullptr && observer_->on_ownership_change) {
    observer_->on_ownership_change(page, *owner, dst, now, result.finish,
                                   /*failover=*/false);
  }
  return result;
}

MigrationResult PgasSystem::migrate_task(WorkerCoord from, WorkerCoord to,
                                         SimTime now) {
  MigrationResult result;
  if (from == to) {
    result.finish = now;
    return result;
  }
  Packet p{PacketType::kMessage, from, to, config_.task_closure_bytes};
  const auto t = network_->send(flat(from), flat(to), p, now);
  result.finish = t.arrival;
  result.bytes_moved = config_.task_closure_bytes;
  result.energy = t.energy;
  energy_.charge(counters().task_migration, result.energy);
  ECO_TRACE_SPAN(obs::Cat::kUnimem, counters().task_migration,
                 (obs::Lane{to.node, to.worker}), now, result.finish,
                 config_.task_closure_bytes);
  return result;
}

}  // namespace ecoscale
