#include "runtime/resilience.h"

#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ecoscale {

namespace {

/// Pre-sampled Poisson event times over [0, horizon).
std::vector<SimTime> sample_failures(Rng& rng, double per_second,
                                     SimTime horizon) {
  std::vector<SimTime> out;
  if (per_second <= 0) return out;
  const double mean_gap_ps = 1e12 / per_second;
  double t = 0;
  while (true) {
    t += rng.exponential(mean_gap_ps);
    if (t >= static_cast<double>(horizon)) break;
    out.push_back(static_cast<SimTime>(t));
  }
  return out;
}

}  // namespace

ScrubOutcome scrubbing_policy(SimDuration scrub_period, double seu_per_second,
                              std::uint64_t calls, SimTime horizon,
                              SimDuration reload_time, std::uint64_t seed) {
  ECO_CHECK(calls > 0 && horizon > 0);
  Rng rng(seed ^ 0x5eed);
  const auto seus = sample_failures(rng, seu_per_second, horizon);
  ScrubOutcome out;
  const SimDuration call_gap = horizon / calls;
  const bool scrubbing = scrub_period > 0;
  bool corrupted = false;
  std::size_t next_seu = 0;
  SimTime next_scrub = scrubbing ? scrub_period : horizon + 1;
  for (std::uint64_t c = 0; c < calls; ++c) {
    const SimTime now = static_cast<SimTime>(c) * call_gap;
    // Replay SEU and scrub events up to this call in time order: a scrub
    // after an SEU repairs it; an SEU after the last scrub corrupts.
    for (;;) {
      const SimTime seu_t =
          next_seu < seus.size() ? seus[next_seu] : horizon + 1;
      const SimTime scrub_t = next_scrub;
      if (seu_t > now && scrub_t > now) break;
      if (seu_t <= scrub_t) {
        corrupted = true;
        ++next_seu;
      } else {
        corrupted = false;
        ++out.scrub_passes;
        out.overhead += reload_time;
        next_scrub += scrub_period;
      }
    }
    if (corrupted) ++out.corrupted_calls;
  }
  out.corrupted_fraction = static_cast<double>(out.corrupted_calls) /
                           static_cast<double>(calls);
  return out;
}

}  // namespace ecoscale
