// Deterministic balanced reduction trees (DESIGN.md §7.8).
//
// Combining N per-shard partials with a serial left fold bakes the
// summation order of floating point into the result. reduce_tree folds
// over a *balanced binary tree whose shape depends only on N*: left and
// right subtrees split at the midpoint, recursively. Because the shape is a
// pure function of the index range, the result (including floating-point
// rounding) is fixed by N alone, which is what pinned hashes built on a
// fold need.
#pragma once

#include <cstddef>
#include <utility>

namespace ecoscale {

namespace detail {

template <typename T, typename Get, typename Combine>
T reduce_range(std::size_t lo, std::size_t hi, const Get& get,
               const Combine& combine) {
  const std::size_t n = hi - lo;
  if (n == 1) return get(lo);
  const std::size_t mid = lo + n / 2;
  T left = reduce_range<T>(lo, mid, get, combine);
  T right = reduce_range<T>(mid, hi, get, combine);
  return combine(std::move(left), std::move(right));
}

}  // namespace detail

/// Fold `count` leaves over a balanced binary tree. `get(i)` produces leaf
/// i, `combine(a, b)` joins two adjacent subtrees (the left argument is
/// always the lower-index one). The tree shape, and therefore the result,
/// depends only on `count`.
template <typename T, typename Get, typename Combine>
T reduce_tree(std::size_t count, T identity, const Get& get,
              const Combine& combine) {
  if (count == 0) return identity;
  return detail::reduce_range<T>(0, count, get, combine);
}

}  // namespace ecoscale
