// Allocation-free log-bucketed latency histogram.
//
// Serving benches need tail percentiles (p50/p99/p999) over millions of
// per-request sim-time latencies. Samples (common/stats.h) keeps every
// value and sorts at query time — exact, but O(n) memory and an
// allocation per record, which the "millions of users" load generators
// cannot afford. LatencyHistogram is the HDR-histogram shape instead: a
// fixed std::array of counters indexed by (octave, sub-bucket), so
// record() is a few bit operations and one increment, memory is ~15 KiB
// regardless of sample count, and merge across per-node recorders is a
// counter-wise add. Relative quantile error is bounded by 2^-kSubBits
// (~3% at the default 5 sub-bucket bits); min/max/sum/count stay exact.
//
// Everything is deterministic: identical record() sequences (in any
// order — the histogram is order-free) produce identical percentiles and
// an identical fingerprint(), which is what lets serve benches pin their
// hashes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/fingerprint.h"

namespace ecoscale {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits linear buckets per power of two.
  static constexpr unsigned kSubBits = 5;
  static constexpr unsigned kSub = 1u << kSubBits;
  /// Octave 0 covers [0, kSub) exactly; octaves 1.. cover the remaining
  /// 64 - kSubBits bit positions with kSub sub-buckets each.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(64 - kSubBits + 1) * kSub;

  void record(std::uint64_t v) {
    ++buckets_[index_of(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Value at percentile p (0 < p <= 100): the smallest bucket whose
  /// cumulative count reaches ceil(p/100 * count). The returned value is
  /// the bucket's lower bound clamped to [min, max], so percentile(100)
  /// == max() exactly and low percentiles never under-run min().
  ///
  /// The rank is computed in exact integer arithmetic: p is snapped to
  /// parts-per-1e7 (1e-5 percent resolution, so p999 == 99.9 is exact)
  /// and the ceiling is an integer division. The previous
  /// `frac * count + 0.9999999` double expression could shift the rank by
  /// a sample once counts grow past the point where `frac * count` picks
  /// up rounding error (~2^23 samples), and the ad-hoc epsilon was never
  /// an exact ceil at boundary ranks.
  std::uint64_t percentile(double p) const {
    if (count_ == 0) return 0;
    constexpr std::uint64_t kDen = 10'000'000;  // percent in units of 1e-5
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto num =
        static_cast<std::uint64_t>(clamped * 100'000.0 + 0.5);  // <= kDen
    // ceil(count * num / kDen) without overflow: split count into
    // quotient/remainder by kDen. q * num <= count * (num / kDen) <= count,
    // and r * num < kDen^2 = 1e14, so both terms fit in 64 bits.
    const std::uint64_t q = count_ / kDen;
    const std::uint64_t r = count_ % kDen;
    std::uint64_t target = q * num + (r * num + kDen - 1) / kDen;
    target = std::clamp<std::uint64_t>(target, 1, count_);
    // The top rank is the maximum sample, which is tracked exactly —
    // don't round it down to its bucket's lower bound.
    if (target == count_) return max_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        return std::clamp(bucket_low(i), min_, max_);
      }
    }
    return max_;
  }

  /// Counter-wise add; equivalent to having recorded both streams into
  /// one histogram (record order never matters).
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_) min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void reset() { *this = LatencyHistogram{}; }

  /// FNV-1a over the full bucket array plus the exact aggregates — equal
  /// iff the recorded multiset of (bucketized) values is equal. Used by
  /// determinism gates.
  std::uint64_t fingerprint() const {
    std::uint64_t h = kFnvOffset;
    for (const std::uint64_t c : buckets_) h = fnv_word(h, c);
    h = fnv_word(h, count_);
    h = fnv_word(h, sum_);
    h = fnv_word(h, count_ ? min_ : 0);
    return fnv_word(h, max_);
  }

  /// Bucket index for a value: exact below kSub, then (octave,
  /// sub-bucket) with the sub-bucket taken from the bits just below the
  /// leading one.
  static std::size_t index_of(std::uint64_t v) {
    const unsigned msb =
        63u - static_cast<unsigned>(std::countl_zero(v | 1));
    if (msb < kSubBits) return static_cast<std::size_t>(v);
    const unsigned shift = msb - kSubBits;
    const auto sub = static_cast<unsigned>((v >> shift) & (kSub - 1));
    return (static_cast<std::size_t>(msb - kSubBits + 1) << kSubBits) + sub;
  }

  /// Smallest value mapping to bucket `idx` (inverse of index_of).
  static std::uint64_t bucket_low(std::size_t idx) {
    if (idx < kSub) return idx;
    const auto oct = static_cast<unsigned>(idx >> kSubBits);  // >= 1
    const auto sub = static_cast<unsigned>(idx & (kSub - 1));
    const unsigned shift = oct - 1;
    return ((std::uint64_t{1} << kSubBits) | sub) << shift;
  }

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace ecoscale
