// Deterministic schedule perturbation for randomized-interleaving runs.
//
// Litmus-style executors explore schedules by adding bounded jitter to
// event issue times. The jitter must be (a) deterministic per seed, so a
// failing schedule replays, and (b) independent of evaluation order, so
// the value a stream draws never depends on how the shards interleave. A
// stateful Rng stream shared by the shards satisfies neither; this is
// instead a pure hash: every (stream, step) pair maps to its jitter
// independently, with splitmix64 as the mixer (the same finalizer
// common/rng.h seeds with).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace ecoscale {

class SchedulePerturb {
 public:
  explicit SchedulePerturb(std::uint64_t seed) : seed_(seed) {}

  /// Jitter in [0, max] for step `step` of logical stream `stream`
  /// (e.g. stream = litmus thread, step = op index; or stream = shard,
  /// step = serialization counter). Pure function of (seed, stream, step).
  SimDuration jitter(std::uint64_t stream, std::uint64_t step,
                     SimDuration max) const {
    if (max == 0) return 0;
    return mix(seed_ ^ mix(stream * 0x9e3779b97f4a7c15ull + step)) %
           (max + 1);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint64_t seed_;
};

}  // namespace ecoscale
