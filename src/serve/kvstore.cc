#include "serve/kvstore.h"

#include <array>
#include <cstring>
#include <span>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/reduce.h"
#include "interconnect/network.h"
#include "obs/trace.h"

namespace ecoscale::serve {

namespace {

/// splitmix64 — the same finalizer Rng seeds with; good avalanche, so the
/// node/worker partition fields are decorrelated.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// payload[0] layout: [63:62] op, [61:44] origin, [43:0] key.
constexpr std::uint64_t kKeyBits = 44;
constexpr std::uint64_t kOriginBits = 18;
constexpr std::uint64_t kKeyMask = (1ull << kKeyBits) - 1;
constexpr std::uint64_t kOriginMask = (1ull << kOriginBits) - 1;

std::uint64_t pack_request(KvOp op, std::size_t origin, std::uint64_t key) {
  return (static_cast<std::uint64_t>(op) << 62) |
         ((static_cast<std::uint64_t>(origin) & kOriginMask) << kKeyBits) |
         (key & kKeyMask);
}

struct Decoded {
  KvOp op;
  std::size_t origin;
  std::uint64_t key;
};

Decoded unpack_request(std::uint64_t word) {
  return Decoded{static_cast<KvOp>(word >> 62),
                 static_cast<std::size_t>((word >> kKeyBits) & kOriginMask),
                 word & kKeyMask};
}

/// Fixed functional slot: [present, value], 16 bytes.
constexpr Bytes kSlotBytes = 16;

struct ServeTraceNames {
  CounterId apply = CounterRegistry::intern("serve.apply");
  CounterId shed = CounterRegistry::intern("serve.shed");
  CounterId forward = CounterRegistry::intern("serve.forward");
  CounterId block_move = CounterRegistry::intern("unimem.block_move");
};
[[maybe_unused]] const ServeTraceNames& serve_trace_names() {
  static const ServeTraceNames names;
  return names;
}

}  // namespace

const char* kv_op_name(KvOp op) {
  switch (op) {
    case KvOp::kGet: return "get";
    case KvOp::kSet: return "set";
    case KvOp::kDelete: return "del";
  }
  return "?";
}

KernelIR make_kv_kernel() {
  KernelIR k;
  k.name = "kv.request";
  k.id = 0x5E27;
  k.ops.int_add = 6;
  k.ops.int_mul = 1;
  k.ops.compare = 4;
  k.loads = 2;
  k.stores = 1;
  k.bytes_in = 64;
  k.bytes_out = 16;
  k.cpu_cycles_per_item = 3.0;
  return k;
}

KvStore::KvStore(ShardedRuntime& rt, KvConfig config)
    : rt_(rt), config_(config), kernel_(make_kv_kernel()) {
  nodes_ = rt_.node_count();
  ECO_CHECK_MSG(config_.key_space > 0 && config_.key_space <= kKeyMask,
                "key_space must fit the 44-bit payload key field");
  ECO_CHECK_MSG(nodes_ <= kOriginMask, "too many nodes for payload origin");
  ECO_CHECK_MSG(
      rt_.runtime(0).config().distribution == DistributionPolicy::kHomeOnly,
      "KvStore requires home-only distribution: spilling a key off its "
      "owning worker would break per-key serialization");

  const std::size_t per_node = rt_.machine(0).workers_per_node();

  if (config_.repart_blocks > 0) {
    // Block mode: contiguous key-range blocks, each pinned to worker
    // (block % per_node) on whichever node currently owns it. Every node
    // allocates a region big enough for the whole key space so any block
    // can migrate in; slots assign in key order, so a block's slots are
    // contiguous (migrate_item moves them as one DMA).
    ECO_CHECK_MSG(config_.repart_blocks <= config_.key_space,
                  "more blocks than keys");
    static_block_owner_.resize(config_.repart_blocks);
    for (std::uint32_t b = 0; b < config_.repart_blocks; ++b) {
      static_block_owner_[b] =
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(b) * nodes_ /
                                     config_.repart_blocks);
    }
    std::vector<std::uint64_t> counts(per_node, 0);
    for (std::uint64_t key = 0; key < config_.key_space; ++key) {
      ++counts[block_of(key) % per_node];
    }
    block_slot_addr_.assign(
        nodes_, std::vector<std::uint64_t>(config_.key_space, 0));
    for (std::size_t n = 0; n < nodes_; ++n) {
      std::vector<GlobalAddress> base(per_node);
      for (std::size_t w = 0; w < per_node; ++w) {
        if (counts[w] == 0) continue;
        base[w] = rt_.machine(n).pgas().alloc(0, static_cast<WorkerId>(w),
                                              counts[w] * kSlotBytes);
      }
      std::vector<std::uint64_t> cursor(per_node, 0);
      for (std::uint64_t key = 0; key < config_.key_space; ++key) {
        const std::size_t w = block_of(key) % per_node;
        block_slot_addr_[n][key] = (base[w] + cursor[w] * kSlotBytes).raw();
        ++cursor[w];
      }
    }
  } else {
    // Partition pass 1: count keys per (node, worker).
    std::vector<std::vector<std::uint64_t>> counts(
        nodes_, std::vector<std::uint64_t>(per_node, 0));
    owner_node_of_key_.resize(config_.key_space);
    std::vector<std::uint32_t> worker_of_key(config_.key_space);
    for (std::uint64_t key = 0; key < config_.key_space; ++key) {
      const std::uint64_t h = mix64(key);
      const auto node = static_cast<std::uint32_t>(h % nodes_);
      const auto worker = static_cast<std::uint32_t>((h >> 32) % per_node);
      owner_node_of_key_[key] = node;
      worker_of_key[key] = worker;
      ++counts[node][worker];
    }
    // Pass 2: one PGAS region per (node, worker) in that node's private
    // UNIMEM domain (the shard is the node, so node-local coordinates).
    std::vector<std::vector<GlobalAddress>> base(
        nodes_, std::vector<GlobalAddress>(per_node));
    for (std::size_t n = 0; n < nodes_; ++n) {
      for (std::size_t w = 0; w < per_node; ++w) {
        if (counts[n][w] == 0) continue;
        base[n][w] = rt_.machine(n).pgas().alloc(
            0, static_cast<WorkerId>(w), counts[n][w] * kSlotBytes);
      }
    }
    // Pass 3: assign slots in key order.
    slot_addr_of_key_.resize(config_.key_space);
    std::vector<std::vector<std::uint64_t>> cursor(
        nodes_, std::vector<std::uint64_t>(per_node, 0));
    for (std::uint64_t key = 0; key < config_.key_space; ++key) {
      const std::uint32_t n = owner_node_of_key_[key];
      const std::uint32_t w = worker_of_key[key];
      slot_addr_of_key_[key] =
          (base[n][w] + cursor[n][w] * kSlotBytes).raw();
      ++cursor[n][w];
    }
  }

  apply_log_.resize(nodes_);
  sheds_.assign(nodes_, 0);
  remote_issues_.assign(nodes_, 0);
  forwards_.assign(nodes_, 0);
  byte_hops_.assign(nodes_, 0);

  rt_.register_kernel(kernel_, /*variants=*/{});
  for (std::size_t n = 0; n < nodes_; ++n) {
    rt_.runtime(n).set_completion_handler(
        [this, n](const Task& task, const TaskResult& result) {
          if (task.kernel == kernel_.id) on_complete(n, task, result);
        });
    rt_.runtime(n).set_shed_handler(
        [this, n](const Task& task, SimTime at) {
          if (task.kernel == kernel_.id) on_shed(n, task, at);
        });
  }
}

void KvStore::issue(std::size_t origin, KvOp op, std::uint64_t key,
                    std::uint64_t value, TaskId request) {
  ECO_CHECK(origin < nodes_);
  ECO_CHECK(key < config_.key_space);
  ECO_CHECK_MSG(request != 0, "request ids must be nonzero");
  const std::size_t owner = owner_of(key);
  WorkerId home_worker;
  if (config_.repart_blocks > 0) {
    const std::uint32_t block = block_of(key);
    home_worker = static_cast<WorkerId>(
        block % rt_.machine(0).workers_per_node());
    // Issue-side load recording at the *origin* shard: the offered load of
    // a block is what its clients want, not what its (possibly dead)
    // owner manages to serve.
    if (repart_ != nullptr) {
      repart::LoadTracker& tracker = repart_->tracker();
      tracker.record_access(origin, block, static_cast<std::uint32_t>(origin),
                            config_.value_bytes);
      tracker.record_work(origin, block, config_.service_items);
    }
    if (owner != origin) {
      ++remote_issues_[origin];
      byte_hops_[origin] +=
          2 * config_.value_bytes *
          static_cast<std::uint64_t>(rt_.internode().hop_count(origin, owner));
    }
  } else {
    home_worker = GlobalAddress::from_raw(slot_addr_of_key_[key]).worker();
  }

  Task task;
  task.id = request;
  task.kernel = kernel_.id;
  task.items = config_.service_items;
  task.features.items = static_cast<double>(config_.service_items);
  task.features.bytes = static_cast<double>(config_.value_bytes);
  task.home = WorkerCoord{0, home_worker};  // node-local owning worker
  task.payload[0] = pack_request(op, origin, key);
  task.payload[1] = value;
  if (owner == origin) {
    task.release = rt_.shard(origin).now();
    rt_.submit(origin, task);
  } else {
    // The cross-node hop must depart from an action executing on the
    // origin shard (ShardedSimulator::post's contract); wrapping in a
    // same-time origin event keeps issue() valid before run() too.
    Simulator& shard = rt_.shard(origin);
    shard.schedule_at(shard.now(), [this, origin, owner, task] {
      rt_.post_task(origin, owner, task);
    });
  }
}

void KvStore::on_complete(std::size_t owner, const Task& task,
                          const TaskResult& result) {
  const Decoded req = unpack_request(task.payload[0]);
  if (config_.repart_blocks > 0) {
    const std::size_t current = block_owner(block_of(req.key));
    if (current != owner) {
      // Stale routing: the block migrated while this request was queued
      // or in flight. Re-home it to the current owner — the request pays
      // the detour (the service work here was wasted), which is the real
      // cost model of chasing a moved partition.
      ++forwards_[owner];
      byte_hops_[owner] +=
          config_.value_bytes * static_cast<std::uint64_t>(
                                    rt_.internode().hop_count(owner, current));
      ECO_TRACE_INSTANT(obs::Cat::kServe, serve_trace_names().forward,
                        (obs::Lane{static_cast<std::uint16_t>(owner), 0}),
                        result.finished, task.id);
      rt_.post_task(owner, current, task);
      return;
    }
  }
  PgasSystem& pgas = rt_.machine(owner).pgas();
  const GlobalAddress slot = GlobalAddress::from_raw(
      config_.repart_blocks > 0 ? block_slot_addr_[owner][req.key]
                                : slot_addr_of_key_[req.key]);
  const WorkerCoord who = pgas.coord(result.executed_on);

  // Timed storage access at the worker that executed the request: GET
  // reads the value, SET/DELETE write it. The access is issued at the
  // kernel's finish (we are inside the completion event, so now() ==
  // result.finished) and its finish is when the response can depart.
  const MemAccess acc =
      (req.op == KvOp::kGet)
          ? pgas.load(who, slot, config_.value_bytes, result.finished)
          : pgas.store(who, slot, config_.value_bytes, result.finished);

  // Functional apply on the 16-byte slot [present, value].
  std::array<std::uint64_t, 2> words{};
  pgas.read_bytes(slot,
                  std::span<std::uint8_t>(
                      reinterpret_cast<std::uint8_t*>(words.data()),
                      static_cast<std::size_t>(kSlotBytes)));
  KvApplyRecord rec;
  rec.at = acc.finish;
  rec.request = task.id;
  rec.key = req.key;
  rec.op = req.op;
  switch (req.op) {
    case KvOp::kGet:
      rec.found = words[0] != 0;
      rec.returned = rec.found ? words[1] : 0;
      break;
    case KvOp::kSet:
      rec.value = task.payload[1];
      words[0] = 1;
      words[1] = task.payload[1];
      break;
    case KvOp::kDelete:
      rec.found = words[0] != 0;
      words[0] = 0;
      words[1] = 0;
      break;
  }
  if (req.op != KvOp::kGet) {
    pgas.write_bytes(slot,
                     std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(words.data()),
                         static_cast<std::size_t>(kSlotBytes)));
  }
  apply_log_[owner].push_back(rec);
  ECO_TRACE_INSTANT(obs::Cat::kServe, serve_trace_names().apply,
                    (obs::Lane{static_cast<std::uint16_t>(owner),
                               static_cast<std::uint16_t>(who.worker)}),
                    acc.finish, task.id);

  KvResponse resp;
  resp.request = task.id;
  resp.key = req.key;
  resp.op = req.op;
  resp.found = rec.found;
  resp.value = (req.op == KvOp::kGet) ? rec.returned : rec.value;
  respond(owner, req.origin, resp, acc.finish);
}

void KvStore::on_shed(std::size_t owner, const Task& task, SimTime at) {
  const Decoded req = unpack_request(task.payload[0]);
  ++sheds_[owner];
  ECO_TRACE_INSTANT(obs::Cat::kServe, serve_trace_names().shed,
                    (obs::Lane{static_cast<std::uint16_t>(owner), 0}), at,
                    task.id);
  KvResponse resp;
  resp.request = task.id;
  resp.key = req.key;
  resp.op = req.op;
  resp.shed = true;
  respond(owner, req.origin, resp, at);
}

void KvStore::respond(std::size_t owner, std::size_t origin, KvResponse resp,
                      SimTime depart) {
  if (!response_handler_) return;
  auto deliver = [this, origin, resp]() mutable {
    resp.completed = rt_.shard(origin).now();
    response_handler_(origin, resp);
  };
  if (origin == owner) {
    rt_.shard(owner).schedule_at(depart, std::move(deliver));
  } else {
    // Cross-node reply: departs the owner at `depart`, pays the
    // inter-node head latency through the engine mailboxes.
    const SimTime now = rt_.shard(owner).now();
    rt_.post(owner, origin, depart - now, std::move(deliver));
  }
}

std::uint64_t KvStore::block_first(std::uint32_t block) const {
  // Inverse of block_of (floor(key * blocks / keys)): smallest key that
  // lands in `block`.
  return (static_cast<std::uint64_t>(block) * config_.key_space +
          config_.repart_blocks - 1) /
         config_.repart_blocks;
}

std::uint64_t KvStore::block_keys(std::uint32_t block) const {
  return block_first(block + 1) - block_first(block);
}

void KvStore::attach_repartitioner(repart::Repartitioner* rp) {
  ECO_CHECK_MSG(config_.repart_blocks > 0,
                "attach_repartitioner needs block mode (repart_blocks > 0)");
  ECO_CHECK(rp != nullptr && rp->item_count() == config_.repart_blocks);
  repart_ = rp;
  rp->set_client(this);
}

std::uint64_t KvStore::item_bytes(std::uint32_t block) const {
  return block_keys(block) * kSlotBytes;
}

void KvStore::migrate_item(std::uint32_t block, std::uint32_t from,
                           std::uint32_t to, SimTime at) {
  ECO_CHECK(config_.repart_blocks > 0 && from < nodes_ && to < nodes_);
  PgasSystem& src = rt_.machine(from).pgas();
  PgasSystem& dst = rt_.machine(to).pgas();
  const std::uint64_t first = block_first(block);
  const std::uint64_t count = block_keys(block);
  // Functional move, slot by slot; the source slots are wiped so a bug
  // that reads them after the cut surfaces as data loss, not stale data.
  std::array<std::uint64_t, 2> words{};
  const std::array<std::uint64_t, 2> zero{};
  for (std::uint64_t key = first; key < first + count; ++key) {
    const auto s = GlobalAddress::from_raw(block_slot_addr_[from][key]);
    const auto d = GlobalAddress::from_raw(block_slot_addr_[to][key]);
    src.read_bytes(s, std::span<std::uint8_t>(
                          reinterpret_cast<std::uint8_t*>(words.data()),
                          static_cast<std::size_t>(kSlotBytes)));
    dst.write_bytes(d, std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(words.data()),
                           static_cast<std::size_t>(kSlotBytes)));
    src.write_bytes(s, std::span<const std::uint8_t>(
                           reinterpret_cast<const std::uint8_t*>(zero.data()),
                           static_cast<std::size_t>(kSlotBytes)));
  }
  // Timed UNIMEM block DMA: one bulk read out of the donor, the wire
  // latency, one bulk write into the receiver. A block's slots are
  // contiguous in both regions, so each end is a single access. We are at
  // an epoch pause (no shard running), so issuing timed accesses here is
  // single-threaded and in deterministic plan order.
  const auto worker = static_cast<WorkerId>(
      block % rt_.machine(0).workers_per_node());
  const Bytes bytes = count * kSlotBytes;
  const MemAccess rd =
      src.load(WorkerCoord{0, worker},
               GlobalAddress::from_raw(block_slot_addr_[from][first]), bytes,
               at);
  const SimTime arrive =
      std::max(rd.finish, at + rt_.inter_node_latency(from, to));
  const MemAccess wr =
      dst.store(WorkerCoord{0, worker},
                GlobalAddress::from_raw(block_slot_addr_[to][first]), bytes,
                arrive);
  ECO_TRACE_SPAN(obs::Cat::kUnimem, serve_trace_names().block_move,
                 (obs::Lane{static_cast<std::uint16_t>(to),
                            static_cast<std::uint16_t>(worker)}),
                 at, wr.finish, block);
}

KvStore::CrossStats KvStore::cross_stats() const {
  return reduce_tree<CrossStats>(
      nodes_, CrossStats{},
      [&](std::size_t n) {
        return CrossStats{remote_issues_[n], forwards_[n], byte_hops_[n]};
      },
      [](CrossStats a, const CrossStats& b) {
        a.remote_issues += b.remote_issues;
        a.forwards += b.forwards;
        a.byte_hops += b.byte_hops;
        return a;
      });
}

std::uint64_t KvStore::sheds() const {
  std::uint64_t total = 0;
  for (const std::uint64_t s : sheds_) total += s;
  return total;
}

std::uint64_t KvStore::apply_log_hash() const {
  // Per-node FNV streams folded with a balanced deterministic tree: the
  // result depends only on the logs' contents and the node count.
  return reduce_tree<std::uint64_t>(
      nodes_, kFnvOffset,
      [&](std::size_t n) {
        std::uint64_t h = kFnvOffset;
        for (const KvApplyRecord& r : apply_log_[n]) {
          h = fnv_word(h, r.at);
          h = fnv_word(h, r.request);
          h = fnv_word(h, r.key);
          h = fnv_word(h, static_cast<std::uint64_t>(r.op));
          h = fnv_word(h, r.value);
          h = fnv_word(h, r.found);
          h = fnv_word(h, r.returned);
        }
        return h;
      },
      [](std::uint64_t a, std::uint64_t b) { return fnv_word(a, b); });
}

}  // namespace ecoscale::serve
