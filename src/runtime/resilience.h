// Fabric configuration scrubbing (paper abstract: "To further increase
// energy efficiency, as well as to provide resilience, the Workers employ
// reconfigurable accelerators…"). Fabric soft errors (SEUs) corrupt a
// loaded module; scrubbing repairs them by reloading the bitstream.
// Worker crashes, node losses and their recovery run live, through the
// simulator: see runtime/fault.h and DESIGN.md §7.5.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace ecoscale {

/// Fabric configuration scrubbing. SEUs silently corrupt the loaded
/// configuration at `seu_per_second`; corrupted calls produce wrong
/// results *without detection* (silent data corruption) until a scrub pass
/// rewrites the bitstream. `scrub_period == 0` disables scrubbing: the
/// first SEU poisons every later call. A shorter period bounds the
/// corruption window more tightly at a higher steady overhead (one reload
/// per pass). Calls are uniformly spread over `horizon`.
struct ScrubOutcome {
  std::uint64_t corrupted_calls = 0;
  std::uint64_t scrub_passes = 0;
  SimDuration overhead = 0;
  double corrupted_fraction = 0.0;
};

ScrubOutcome scrubbing_policy(SimDuration scrub_period, double seu_per_second,
                              std::uint64_t calls, SimTime horizon,
                              SimDuration reload_time, std::uint64_t seed);

}  // namespace ecoscale
