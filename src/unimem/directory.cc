#include "unimem/directory.h"

namespace ecoscale {

std::vector<std::uint32_t> contiguous_owners(std::size_t items,
                                             std::size_t nodes) {
  std::vector<std::uint32_t> owner(items);
  for (std::size_t i = 0; i < items; ++i) {
    owner[i] = static_cast<std::uint32_t>(i * nodes / items);
  }
  return owner;
}

ShardedDirectory::ShardedDirectory(std::size_t nodes,
                                   std::vector<std::uint32_t> owner)
    : nodes_(nodes),
      items_(owner.size()),
      view_(std::move(owner)),
      alive_(nodes, 1),
      counters_(nodes) {
  for (std::uint32_t i = 0; i < items_; ++i) {
    ECO_CHECK_MSG(view_[i] < nodes_, "item " << i << " owned by node "
                                             << view_[i] << " of " << nodes_);
  }
}

ShardedDirectory::ShardedDirectory(ShardedSimulator& sim, SimDuration hop,
                                   RetryPolicy retry, DirectoryClient& client,
                                   std::vector<std::uint32_t> owner)
    : ShardedDirectory(sim.shard_count(), std::move(owner)) {
  ECO_CHECK_MSG(hop > 0, "directory hop latency must be positive");
  sim_ = &sim;
  hop_ = hop;
  retry_ = retry;
  client_ = &client;
  // In-flight transfers let views disagree: one row per node.
  stride_ = items_;
  const std::vector<std::uint32_t> row = std::exchange(view_, {});
  for (std::size_t n = 0; n < nodes_; ++n) {
    view_.insert(view_.end(), row.begin(), row.end());
  }
}

std::uint32_t ShardedDirectory::holder(std::uint32_t item) const {
  ECO_CHECK(item < items_);
  if (stride_ == 0) return view_[item];
  std::size_t owner = nodes_;
  for (std::size_t n = 0; n < nodes_; ++n) {
    if (!holds(n, item)) continue;
    ECO_CHECK_MSG(owner == nodes_, "item " << item << " owned by two nodes ("
                                           << owner << " and " << n << ")");
    owner = n;
  }
  ECO_CHECK_MSG(owner < nodes_, "item " << item << " lost: no node holds it");
  return static_cast<std::uint32_t>(owner);
}

std::uint32_t ShardedDirectory::transfer_at_pause(std::uint32_t item,
                                                  std::uint32_t to) {
  ECO_CHECK(to < nodes_);
  const std::uint32_t from = holder(item);
  for (std::size_t i = item; i < view_.size(); i += items_) view_[i] = to;
  return from;
}

void ShardedDirectory::request(DirRequest req) {
  ECO_CHECK_MSG(sim_ != nullptr, "request() needs the protocol constructor");
  const std::size_t s = req.from;
  req.hops = 0;
  if (holds(s, req.item)) {
    arrive(s, req);
    return;
  }
  const std::uint32_t to = view(s, req.item);
  deliver(*sim_, s, to, now(s) + hop_ + client_->jitter(req),
          [this, to, req] { arrive(to, req); });
}

void ShardedDirectory::arrive(std::size_t d, DirRequest req) {
  if (alive_[d] == 0) {
    ++counters_[d].nacks;
    deliver(*sim_, d, req.from, now(d) + hop_, [this, req] { on_nack(req); });
    return;
  }
  if (!holds(d, req.item)) {
    // Stale view: one hop on. A node never forwards to itself, since its
    // view names itself exactly when it holds the item. Every install
    // broadcasts, so chains are short and the bound catches only bugs.
    const std::uint32_t to = view(d, req.item);
    ++req.hops;
    ECO_CHECK_MSG(req.hops < kMaxHops, "forwarding chain for item "
                                           << req.item << " does not converge");
    ++counters_[d].forwards;
    deliver(*sim_, d, to, now(d) + hop_, [this, to, req] { arrive(to, req); });
  } else if (!req.migrate) {
    client_->serve(d, req);
  } else {
    ++counters_[d].migrations;
    if (req.to == d) {
      ack(d, req);
    } else {
      release(d, req, req.to, /*failover=*/false);
    }
  }
}

/// Each timed-out attempt re-sends, re-reading the (possibly repaired or
/// re-homed) state. Once the retries are spent, fetch the item from the
/// presumed-dead holder.
void ShardedDirectory::on_nack(DirRequest req) {
  const std::size_t s = req.from;
  if (req.attempts < retry_.max_retries) {
    const SimDuration wait = retry_.wait(req.attempts);
    ++req.attempts;
    ++counters_[s].retries;
    sim_->shard(s).schedule_at(now(s) + wait + client_->jitter(req),
                               [this, req] { request(req); });
    return;
  }
  req.attempts = 0;
  const std::uint32_t dead = view(s, req.item);
  deliver(*sim_, s, dead, now(s) + hop_ + client_->jitter(req),
          [this, dead, req] { fetch(dead, req); });
}

/// Failover fetch at `d`, whose memory stays readable while it is down. A
/// node that lost the item meanwhile sends the requester its view; a
/// repaired holder serves; a dead holder hands the item to the requester.
void ShardedDirectory::fetch(std::size_t d, DirRequest req) {
  if (!holds(d, req.item)) {
    deliver(*sim_, d, req.from, now(d) + hop_,
            [this, req, owner = view(d, req.item)] {
              update(req.from, req.item, owner);
              request(req);
            });
  } else if (alive_[d] != 0) {
    arrive(d, req);
  } else {
    ++counters_[d].failovers;
    release(d, req, req.from, /*failover=*/true);
  }
}

void ShardedDirectory::release(std::size_t d, const DirRequest& req,
                               std::uint32_t to, bool failover) {
  set_view(d, req.item, to);
  deliver(*sim_, d, to, now(d) + hop_,
          [this, to, req, failover] { install(to, req, failover); });
}

void ShardedDirectory::install(std::size_t d, const DirRequest& req,
                               bool failover) {
  ECO_CHECK_MSG(!holds(d, req.item),
                "item " << req.item << " installed twice at node " << d);
  set_view(d, req.item, static_cast<std::uint32_t>(d));
  for (std::size_t n = 0; n < nodes_; ++n) {
    if (n == d) continue;
    deliver(*sim_, d, n, now(d) + hop_, [this, n, d, item = req.item] {
      update(n, item, static_cast<std::uint32_t>(d));
    });
  }
  client_->installed(d, req, failover);
  if (failover) {
    arrive(d, req);  // the requester holds the item now
  } else {
    ack(d, req);
  }
}

void ShardedDirectory::update(std::size_t n, std::uint32_t item,
                              std::uint32_t owner) {
  ECO_CHECK_MSG(stride_ != 0, "update() needs the protocol constructor");
  if (!holds(n, item) && owner != n) set_view(n, item, owner);
}

void ShardedDirectory::ack(std::size_t d, const DirRequest& req) {
  deliver(*sim_, d, req.from, now(d) + (d == req.from ? 0 : hop_),
          [this, req] { client_->migrated(req); });
}

ShardedDirectory::Counters ShardedDirectory::counters() const {
  Counters sum;
  for (const Counters& c : counters_) sum += c;
  return sum;
}

}  // namespace ecoscale
