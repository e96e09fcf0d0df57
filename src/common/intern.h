// String interning for hot-path accounting categories.
//
// Energy and stat categories ("dram.access", "net.read", "pgas.remote.load")
// are fixed small vocabularies, but the meters used to key them by
// std::string and pay a string hash or tree walk per charge — on the
// per-access fast path. A CounterId is the category's process-wide
// small-integer handle: components resolve their categories once (at
// construction or via a function-local static) and charge dense arrays by
// index afterwards. The registry is append-only and thread-safe; ids are
// stable for the lifetime of the process.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ecoscale {

using CounterId = std::uint32_t;

class CounterRegistry {
 public:
  /// Resolve `name` to its id, registering it on first use. Thread-safe;
  /// O(1) amortized. Call once per category and cache the result — this is
  /// the slow lane, not the per-charge path.
  static CounterId intern(std::string_view name);

  /// Name of a previously interned id. Thread-safe; the reference stays
  /// valid for the process lifetime (names are never freed or moved).
  static const std::string& name(CounterId id);
};

}  // namespace ecoscale
