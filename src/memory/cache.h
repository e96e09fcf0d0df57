// Set-associative write-back cache with MESI line states.
//
// The functional state machine is exact (states, LRU, evictions); timing and
// energy are charged by the caller from CacheConfig so different attachment
// points (CPU L2, accelerator-local cache) can weight them differently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace ecoscale {

enum class LineState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

struct CacheConfig {
  Bytes capacity = 256 * kKiB;
  Bytes line_size = 64;
  std::size_t ways = 8;
  SimDuration hit_latency = nanoseconds(4);
  double pj_per_hit = 5.0;
};

struct CacheAccess {
  bool hit = false;
  bool writeback = false;          // a dirty victim was evicted
  std::uint64_t victim_line = 0;   // line address of the victim, if any
  bool evicted = false;
};

class Cache {
 public:
  explicit Cache(std::string name, CacheConfig config = {});

  Bytes line_size() const { return config_.line_size; }
  const CacheConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr / config_.line_size;
  }

  /// Look up a line without touching LRU.
  LineState state(std::uint64_t line) const;

  /// Install a line in the given state, possibly evicting a victim.
  CacheAccess fill(std::uint64_t line, LineState st);

  /// Hit path: touch LRU, optionally upgrade to Modified on writes.
  /// Returns false if the line is not present.
  bool touch(std::uint64_t line, bool write);

  /// Snoop actions from the coherence domain.
  /// Invalidate; returns true if the line was dirty (writeback needed).
  bool invalidate(std::uint64_t line);
  /// Downgrade Modified/Exclusive to Shared; returns true if data was dirty.
  bool downgrade(std::uint64_t line);

  // --- stats ---
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t snoop_invalidations() const { return snoop_invalidations_; }
  double hit_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 0.0;
  }
  /// Record an access outcome (bumped by the coherence domain).
  void count_hit() { ++hits_; }
  void count_miss() { ++misses_; }

 private:
  struct Way {
    std::uint64_t line = 0;
    LineState state = LineState::kInvalid;
    std::uint64_t lru = 0;  // larger = more recent
  };

  /// Set index: sets_ is almost always a power of two (capacity and line
  /// size are), so the lookup fast path is a mask; the modulo only survives
  /// for exotic configs.
  std::size_t set_of(std::uint64_t line) const {
    return set_mask_ != 0 ? (line & set_mask_) : (line % sets_);
  }
  Way* find(std::uint64_t line);
  const Way* find(std::uint64_t line) const;

  std::string name_;
  CacheConfig config_;
  std::size_t sets_;
  std::uint64_t set_mask_ = 0;  // sets_ - 1 when sets_ is a power of two
  std::vector<Way> ways_;  // sets_ * config_.ways entries
  std::uint64_t lru_clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t snoop_invalidations_ = 0;
};

}  // namespace ecoscale
