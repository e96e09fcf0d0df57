#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/energy.h"
#include "common/fingerprint.h"
#include "common/health.h"
#include "common/latency.h"
#include "common/reduce.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace ecoscale {
namespace {

TEST(Units, TimeConversions) {
  EXPECT_EQ(nanoseconds(1), 1000u);
  EXPECT_EQ(microseconds(1), 1000u * 1000u);
  EXPECT_EQ(milliseconds(1), 1000u * 1000u * 1000u);
  EXPECT_DOUBLE_EQ(to_nanoseconds(nanoseconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
}

TEST(Units, ByteHelpers) {
  EXPECT_EQ(kibibytes(2), 2048u);
  EXPECT_EQ(mebibytes(1), 1024u * 1024u);
}

TEST(Units, BandwidthTransferTime) {
  // 1 GiB/s: 1 GiB takes 1e12 ps = 1 s.
  const auto bw = Bandwidth::from_gib_per_s(1.0);
  EXPECT_NEAR(static_cast<double>(bw.transfer_time(kGiB)), 1e12, 1e6);
  // 8 GiB/s moves 8 bytes in ~0.93 ns.
  const auto fast = Bandwidth::from_gib_per_s(8.0);
  EXPECT_NEAR(static_cast<double>(fast.transfer_time(8)),
              8.0 * 1e12 / (8.0 * static_cast<double>(kGiB)), 1.0);
}

TEST(Units, EnergyAndMillisecondConversions) {
  EXPECT_DOUBLE_EQ(to_nanojoules(2.5e3), 2.5);
  EXPECT_DOUBLE_EQ(to_microjoules(3e6), 3.0);
  EXPECT_DOUBLE_EQ(to_millijoules(4e9), 4.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(9)), 9.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(500)), 0.5);
}

TEST(Check, ThrowsOnFailure) {
  EXPECT_THROW(ECO_CHECK(false), CheckError);
  EXPECT_NO_THROW(ECO_CHECK(true));
  try {
    ECO_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformU64InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(sum_sq / n - mean * mean), 3.0, 0.1);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(Rng, ZipfZeroSkewIsUniformish) {
  Rng rng(23);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (const int c : counts) EXPECT_NEAR(c, 2000, 200);
}

TEST(Rng, BoundedPoissonMeanAndBound) {
  Rng rng(31);
  const double mean = 3.0;
  const std::uint64_t bound = 20;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = rng.bounded_poisson(mean, bound);
    EXPECT_LE(k, bound);
    sum += static_cast<double>(k);
  }
  EXPECT_NEAR(sum / n, mean, 0.1);
}

TEST(Rng, BoundedPoissonChiSquaredAgainstPmf) {
  // Pearson fit against the Poisson pmf for k = 0..7 (tail pooled):
  // chi^2 with 8 bins has 7 dof; 24.3 is the 0.1% critical value, so a
  // correct sampler fails this about once in a thousand seeds.
  Rng rng(37);
  const double mean = 2.0;
  const int n = 50000;
  std::vector<double> observed(9, 0.0);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = rng.bounded_poisson(mean, 100);
    observed[std::min<std::uint64_t>(k, 8)] += 1.0;
  }
  double chi2 = 0.0;
  double tail = static_cast<double>(n);
  double pmf = std::exp(-mean);  // P(0)
  for (int k = 0; k < 8; ++k) {
    const double expected = pmf * n;
    chi2 += (observed[k] - expected) * (observed[k] - expected) / expected;
    tail -= expected;
    pmf *= mean / (k + 1);
  }
  chi2 += (observed[8] - tail) * (observed[8] - tail) / std::max(tail, 1.0);
  EXPECT_LT(chi2, 24.3);
}

TEST(Rng, BoundedPoissonZeroMeanAndTinyBound) {
  Rng rng(41);
  EXPECT_EQ(rng.bounded_poisson(0.0, 8), 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(rng.bounded_poisson(50.0, 3), 3u);
  }
}

TEST(ZipfSampler, MatchesTheoreticalFrequencies) {
  // Chi-squared-style fit against p(r) ~ 1/(r+1)^s over 8 ranks.
  const std::size_t ranks = 8;
  const double s = 1.0;
  ZipfSampler zipf(ranks, s);
  Rng rng(43);
  const int n = 50000;
  std::vector<double> observed(ranks, 0.0);
  for (int i = 0; i < n; ++i) ++observed[zipf(rng)];
  double norm = 0.0;
  for (std::size_t r = 0; r < ranks; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  double chi2 = 0.0;
  for (std::size_t r = 0; r < ranks; ++r) {
    const double expected =
        n / (std::pow(static_cast<double>(r + 1), s) * norm);
    chi2 += (observed[r] - expected) * (observed[r] - expected) / expected;
  }
  EXPECT_LT(chi2, 24.3);  // 7 dof, 0.1% critical value
}

TEST(ZipfSampler, ZeroSkewIsUniformAndSharedAcrossStreams) {
  const ZipfSampler zipf(4, 0.0);
  Rng a(47);
  Rng b(53);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[zipf(a)];  // one immutable sampler, two rng streams
    ++counts[zipf(b)];
  }
  for (const int c : counts) EXPECT_NEAR(c, 2000, 200);
}

TEST(ZipfSampler, StrongSkewConcentratesOnRankZero) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(59);
  int rank0 = 0;
  for (int i = 0; i < 10000; ++i) {
    if (zipf(rng) == 0) ++rank0;
  }
  EXPECT_GT(rank0, 2000);  // ~36% of mass at s=1.2 over 1000 ranks
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(LatencyHistogram, ExactBelowSubBucketRange) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < LatencyHistogram::kSub; ++v) h.record(v);
  EXPECT_EQ(h.count(), LatencyHistogram::kSub);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), LatencyHistogram::kSub - 1);
  // Values below kSub land in exact unit buckets.
  EXPECT_EQ(h.percentile(50.0), LatencyHistogram::kSub / 2 - 1);
  EXPECT_EQ(h.percentile(100.0), h.max());
}

TEST(LatencyHistogram, RelativeQuantileErrorBounded) {
  LatencyHistogram h;
  Rng rng(61);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform spread over ~6 decades, the shape latencies take.
    const std::uint64_t v =
        static_cast<std::uint64_t>(std::exp(rng.uniform() * 14.0)) + 1;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(std::ceil(p / 100.0 * values.size())) - 1);
    const double exact = static_cast<double>(values[rank]);
    const double approx = static_cast<double>(h.percentile(p));
    // Bucket lower bound: under-reports by at most one sub-bucket width.
    EXPECT_LE(approx, exact * 1.001 + 1.0) << "p" << p;
    EXPECT_GE(approx, exact * (1.0 - 2.0 / LatencyHistogram::kSub) - 1.0)
        << "p" << p;
  }
}

TEST(LatencyHistogram, MergeMatchesSequentialAndIsOrderFree) {
  LatencyHistogram whole;
  LatencyHistogram a;
  LatencyHistogram b;
  Rng rng(67);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t v = rng.uniform_u64(1u << 20) + 1;
    whole.record(v);
    (i % 2 ? a : b).record(v);
  }
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.fingerprint(), whole.fingerprint());
  EXPECT_EQ(ba.fingerprint(), whole.fingerprint());
  EXPECT_EQ(ab.percentile(99.0), whole.percentile(99.0));
  EXPECT_EQ(ab.count(), whole.count());
  EXPECT_EQ(ab.sum(), whole.sum());
  EXPECT_EQ(ab.min(), whole.min());
  EXPECT_EQ(ab.max(), whole.max());
}

TEST(LatencyHistogram, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  const std::uint64_t empty_print = h.fingerprint();
  h.record(12345);
  EXPECT_NE(h.fingerprint(), empty_print);
  h.reset();
  EXPECT_EQ(h.fingerprint(), empty_print);
}

TEST(LatencyHistogram, IndexAndBucketLowRoundTrip) {
  for (const std::uint64_t v :
       {0ull, 1ull, 31ull, 32ull, 33ull, 1000ull, (1ull << 32) + 12345ull,
        ~0ull}) {
    const std::size_t idx = LatencyHistogram::index_of(v);
    const std::uint64_t low = LatencyHistogram::bucket_low(idx);
    EXPECT_LE(low, v);
    EXPECT_EQ(LatencyHistogram::index_of(low), idx);
    if (idx + 1 < LatencyHistogram::kBucketCount) {
      EXPECT_GT(LatencyHistogram::bucket_low(idx + 1), v);
    }
  }
}

TEST(LatencyHistogram, PercentileRankBoundariesAreExact) {
  // Ten distinct unit-bucket values: rank arithmetic is fully exact, so
  // the percentile must flip at precisely ceil(p/100 * 10) with no
  // epsilon slop on either side of a boundary.
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.percentile(10.0), 1u);   // target = 1
  EXPECT_EQ(h.percentile(49.99999), 5u);
  EXPECT_EQ(h.percentile(50.0), 5u);   // target = 5, exactly
  EXPECT_EQ(h.percentile(50.00001), 6u);
  EXPECT_EQ(h.percentile(90.0), 9u);
  EXPECT_EQ(h.percentile(100.0), 10u);
}

TEST(LatencyHistogram, PercentileExactAtLargeCounts) {
  // The regression the integer-ceil rank fixed: at large counts the old
  // `frac * count + 0.9999999` double expression drifted past the exact
  // rank (0.8 * 671088640 is not representable, and the epsilon pushed
  // the product over the next integer). Build ~6.7e8 samples by merge
  // doubling: 4 zeros + 1 one, doubled 27 times.
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) h.record(0);
  h.record(1);
  for (int i = 0; i < 27; ++i) {
    const LatencyHistogram half = h;
    h.merge(half);
  }
  const std::uint64_t n = 5ull << 27;
  ASSERT_EQ(h.count(), n);
  // Exactly 80% of the samples are zero, so the boundary sits at p=80:
  // target == 0.8n lands on the last zero, one rank further is a one.
  EXPECT_EQ(h.percentile(80.0), 0u);
  EXPECT_EQ(h.percentile(79.99999), 0u);
  EXPECT_EQ(h.percentile(80.00001), 1u);
  EXPECT_EQ(h.percentile(100.0), 1u);  // p100 is max() exactly
}

TEST(LatencyHistogram, PercentileLowTailClampsToMin) {
  LatencyHistogram h;
  for (std::uint64_t v = 100; v < 100 + 1000; ++v) h.record(v);
  // p -> 0 clamps the rank to 1 (the minimum sample), never below.
  EXPECT_EQ(h.percentile(0.0), h.min());
  EXPECT_EQ(h.percentile(0.00001), h.min());
  EXPECT_EQ(h.percentile(1e-9), h.min());
  // Out-of-range p is clamped, not UB.
  EXPECT_EQ(h.percentile(-5.0), h.min());
  EXPECT_EQ(h.percentile(250.0), h.max());
  // Monotone in p across the whole range.
  std::uint64_t prev = 0;
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    const std::uint64_t v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(Samples, ExactPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(Samples, EmptyPercentileThrows) {
  Samples s;
  EXPECT_THROW(s.percentile(50), CheckError);
}

TEST(EnergyMeter, ChargesAndBreakdown) {
  EnergyMeter m;
  m.charge("dram", 100.0);
  m.charge("dram", 50.0);
  m.charge("link", 25.0);
  EXPECT_DOUBLE_EQ(m.total(), 175.0);
  EXPECT_DOUBLE_EQ(m.category("dram"), 150.0);
  EXPECT_DOUBLE_EQ(m.category("none"), 0.0);
}

TEST(EnergyMeter, Merge) {
  EnergyMeter a;
  EnergyMeter b;
  a.charge("x", 1.0);
  b.charge("x", 2.0);
  b.charge("y", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total(), 6.0);
  EXPECT_DOUBLE_EQ(a.category("x"), 3.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TableFormat, Helpers) {
  EXPECT_EQ(fmt_u64(42), "42");
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ratio(2.5), "2.50x");
  EXPECT_EQ(fmt_pct(0.425), "42.5%");
  EXPECT_EQ(fmt_bytes(2048), "2.00 KiB");
  EXPECT_EQ(fmt_time_ps(1500.0), "1.50 ns");
  EXPECT_EQ(fmt_energy_pj(2.5e6), "2.50 uJ");
}

TEST(TableFormat, ScientificAndRowAccess) {
  EXPECT_EQ(fmt_sci(12345.0, 2), "1.23e+04");
  EXPECT_EQ(fmt_sci(0.00042, 1), "4.2e-04");
  Table t({"x", "y"});
  t.add_row({"1", "2"}).add_row({"3", "4"});
  EXPECT_EQ(t.headers(), (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(t.rows().size(), 2u);
  EXPECT_EQ(t.rows()[1][0], "3");
}

// --- health registry -------------------------------------------------------

TEST(HealthRegistry, NodeStaysUpWhileAnyWorkerIsUp) {
  HealthRegistry health(4, 2);
  EXPECT_EQ(health.worker_count(), 4u);
  EXPECT_EQ(health.up_workers(), 4u);
  health.mark_down(2);
  EXPECT_TRUE(health.node_up(1));
  EXPECT_EQ(health.up_workers(), 3u);
  health.mark_down(3);
  EXPECT_FALSE(health.node_up(1));
  EXPECT_TRUE(health.node_up(0));
  health.mark_up(3);
  EXPECT_TRUE(health.node_up(1));
  EXPECT_EQ(health.up_workers(), 3u);
}

TEST(HealthRegistry, BlacklistOnlyExtendsAndThenExpires) {
  HealthRegistry health(2, 1);
  health.blacklist(1, microseconds(10));
  health.blacklist(1, microseconds(4));  // an earlier expiry never shortens
  EXPECT_EQ(health.blacklists(), 2u);
  EXPECT_TRUE(health.blacklisted(1, microseconds(9)));
  EXPECT_FALSE(health.available(1, microseconds(9)));
  EXPECT_FALSE(health.blacklisted(1, microseconds(10)));
  EXPECT_TRUE(health.available(1, microseconds(10)));
  // A dead worker is unavailable whatever its blacklist says.
  health.mark_down(0);
  EXPECT_FALSE(health.blacklisted(0, 0));
  EXPECT_FALSE(health.available(0, 0));
}

TEST(HealthRegistry, RejectsAPartialNode) {
  HealthRegistry health;
  EXPECT_THROW(health.reset(5, 2), CheckError);
  EXPECT_THROW(health.reset(4, 0), CheckError);
}

// --- fingerprint fold ------------------------------------------------------

// Bytewise FNV-1a, written independently of common/fingerprint.h.
std::uint64_t fnv1a_bytes(std::uint64_t h, const unsigned char* p,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Fingerprint, FnvWordIsFnv1aOverLittleEndianBytes) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t h = rng();
    const std::uint64_t v = rng();
    unsigned char bytes[8];
    for (int b = 0; b < 8; ++b) {
      bytes[b] = static_cast<unsigned char>(v >> (8 * b));
    }
    ASSERT_EQ(fnv_word(h, v), fnv1a_bytes(h, bytes, 8)) << "i " << i;
  }
}

TEST(Fingerprint, PinnedValues) {
  // The baseline hashes depend on these exact values.
  static_assert(fnv_word(kFnvOffset, 0) == 0x47fe0d7eaf8e51e3ull);
  EXPECT_EQ(fnv_word(kFnvOffset, 0x0123456789abcdefull),
            0xe1b1f298cfb61863ull);
  // With the published offset basis, folding the word whose little-endian
  // bytes spell "abcdefgh" is the standard FNV-1a 64 of that string.
  EXPECT_EQ(fnv_word(14695981039346656037ull, 0x6867666564636261ull),
            0x25da8c1836a8d66dull);
}

TEST(Fingerprint, FoldIsOrderSensitive) {
  // A fingerprint must tell reordered events apart.
  const std::uint64_t ab = fnv_word(fnv_word(kFnvOffset, 1), 2);
  const std::uint64_t ba = fnv_word(fnv_word(kFnvOffset, 2), 1);
  EXPECT_EQ(ab, 0x162a8345ecfd7fc0ull);
  EXPECT_EQ(ba, 0xe6273486e4d7b1a0ull);
  EXPECT_NE(ab, ba);
}

TEST(ReduceTree, EmptyCountReturnsTheIdentity) {
  int calls = 0;
  const int r = reduce_tree<int>(
      0, 42, [&calls](std::size_t) { return ++calls; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 42);
  EXPECT_EQ(calls, 0);
}

TEST(ReduceTree, ShapeIsAMidpointSplitOfTheCount) {
  const auto shape = [](std::size_t count) {
    return reduce_tree<std::string>(
        count, "",
        [](std::size_t i) { return std::to_string(i); },
        [](std::string a, std::string b) { return "(" + a + "," + b + ")"; });
  };
  EXPECT_EQ(shape(1), "0");
  EXPECT_EQ(shape(2), "(0,1)");
  EXPECT_EQ(shape(5), "((0,1),(2,(3,4)))");
  EXPECT_EQ(shape(8), "(((0,1),(2,3)),((4,5),(6,7)))");
}

TEST(ReduceTree, FloatRoundingFollowsTheTreeNotALeftFold) {
  // At 1e16 doubles are 2 apart, so each +1 below rounds away unless it
  // meets the other +1 first. The tree adds (1e16 + 1) + (-1e16 + 1); a
  // left fold cancels the large terms before the last +1.
  const std::vector<double> leaves = {1e16, 1.0, -1e16, 1.0};
  const double tree = reduce_tree<double>(
      leaves.size(), 0.0, [&leaves](std::size_t i) { return leaves[i]; },
      [](double a, double b) { return a + b; });
  double left = 0.0;
  for (const double v : leaves) left += v;
  EXPECT_EQ(tree, 0.0);
  EXPECT_EQ(left, 1.0);
}

}  // namespace
}  // namespace ecoscale
