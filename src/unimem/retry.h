// The dead-owner retry contract, shared by PgasSystem and
// ShardedDirectory so that the same dead owner costs the same number of
// timed-out attempts in both: `max_retries` attempts, attempt k (0-based)
// waiting wait(k) before it re-checks the owner, then failover.
#pragma once

#include <cstddef>

#include "common/units.h"

namespace ecoscale {

struct RetryPolicy {
  std::size_t max_retries = 3;
  SimDuration timeout = microseconds(50);
  SimDuration backoff = microseconds(25);

  constexpr SimDuration wait(std::size_t k) const {
    return timeout + k * backoff;
  }
};

}  // namespace ecoscale
