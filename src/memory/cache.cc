#include "memory/cache.h"

#include <algorithm>

namespace ecoscale {

Cache::Cache(std::string name, CacheConfig config)
    : name_(std::move(name)), config_(config) {
  ECO_CHECK(config_.line_size > 0 && config_.ways > 0);
  ECO_CHECK(config_.capacity % (config_.line_size * config_.ways) == 0);
  sets_ = config_.capacity / (config_.line_size * config_.ways);
  ECO_CHECK(sets_ > 0);
  if ((sets_ & (sets_ - 1)) == 0) set_mask_ = sets_ - 1;
  ways_.resize(sets_ * config_.ways);
}

Cache::Way* Cache::find(std::uint64_t line) {
  const std::size_t base = set_of(line) * config_.ways;
  for (std::size_t w = 0; w < config_.ways; ++w) {
    Way& way = ways_[base + w];
    if (way.state != LineState::kInvalid && way.line == line) return &way;
  }
  return nullptr;
}

const Cache::Way* Cache::find(std::uint64_t line) const {
  return const_cast<Cache*>(this)->find(line);
}

LineState Cache::state(std::uint64_t line) const {
  const Way* w = find(line);
  return w ? w->state : LineState::kInvalid;
}

CacheAccess Cache::fill(std::uint64_t line, LineState st) {
  ECO_CHECK(st != LineState::kInvalid);
  CacheAccess result;
  if (Way* existing = find(line)) {
    existing->state = st;
    existing->lru = ++lru_clock_;
    return result;
  }
  const std::size_t base = set_of(line) * config_.ways;
  Way* victim = &ways_[base];
  for (std::size_t w = 0; w < config_.ways; ++w) {
    Way& way = ways_[base + w];
    if (way.state == LineState::kInvalid) {
      victim = &way;
      break;
    }
    if (way.lru < victim->lru) victim = &way;
  }
  if (victim->state != LineState::kInvalid) {
    result.evicted = true;
    result.victim_line = victim->line;
    if (victim->state == LineState::kModified) {
      result.writeback = true;
      ++writebacks_;
    }
  }
  victim->line = line;
  victim->state = st;
  victim->lru = ++lru_clock_;
  return result;
}

bool Cache::touch(std::uint64_t line, bool write) {
  Way* w = find(line);
  if (w == nullptr) return false;
  w->lru = ++lru_clock_;
  if (write) {
    // Writing a Shared line requires an upgrade through the coherence
    // domain; callers must not sidestep it.
    ECO_CHECK_MSG(w->state != LineState::kShared,
                  "write hit on Shared line must go through the domain");
    w->state = LineState::kModified;
  }
  return true;
}

bool Cache::invalidate(std::uint64_t line) {
  Way* w = find(line);
  if (w == nullptr || w->state == LineState::kInvalid) return false;
  const bool dirty = w->state == LineState::kModified;
  if (dirty) ++writebacks_;
  w->state = LineState::kInvalid;
  ++snoop_invalidations_;
  return dirty;
}

bool Cache::downgrade(std::uint64_t line) {
  Way* w = find(line);
  if (w == nullptr || w->state == LineState::kInvalid) return false;
  const bool dirty = w->state == LineState::kModified;
  if (dirty) ++writebacks_;
  w->state = LineState::kShared;
  return dirty;
}

}  // namespace ecoscale
