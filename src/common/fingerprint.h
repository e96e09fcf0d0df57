// The determinism fingerprint fold shared by every module.
//
// Determinism gates compare 64-bit fingerprints of a run's observable
// state across runs and against pinned baselines, so every module
// must fold words the same way. fnv_word is FNV-1a over the 8 bytes of a
// word, least significant byte first.
#pragma once

#include <cstdint>

namespace ecoscale {

/// The seed of every fingerprint. Not the published FNV-1a offset basis
/// (14695981039346656037, one digit longer): any fixed seed makes an equally
/// good fingerprint, and the pinned baseline hashes were all made with this
/// one.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds the 8 little-endian bytes of `v` into `h`.
constexpr std::uint64_t fnv_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace ecoscale
