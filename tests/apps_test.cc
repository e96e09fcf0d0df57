#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/cart.h"
#include "apps/kmeans.h"
#include "apps/montecarlo.h"
#include "apps/sort.h"
#include "apps/stencil.h"
#include "common/check.h"

namespace ecoscale::apps {
using ecoscale::CheckError;
namespace {

// --- stencil --------------------------------------------------------------

TEST(Stencil, StepAveragesNeighbours) {
  Grid2D g(3, 3, 0.0);
  g.at(1, 0) = 4.0;
  g.at(1, 2) = 8.0;
  g.at(0, 1) = 2.0;
  g.at(2, 1) = 6.0;
  Grid2D out(3, 3, 0.0);
  const double res = jacobi_step(g, out);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(res, 5.0);
}

TEST(Stencil, InteriorCellsExcludeTheHaloRing) {
  const Grid2D grid(6, 4);
  EXPECT_EQ(grid.interior_cells(), 4u * 2u);
  EXPECT_EQ(grid.data().size(), 6u * 4u);
  EXPECT_EQ(Grid2D(3, 3).interior_cells(), 1u);
}

TEST(Stencil, SolveConvergesToBoundaryValue) {
  Grid2D g(16, 16, 0.0);
  // Hot boundary everywhere: interior must converge toward 1.
  for (std::size_t x = 0; x < 16; ++x) {
    g.at(x, 0) = 1.0;
    g.at(x, 15) = 1.0;
  }
  for (std::size_t y = 0; y < 16; ++y) {
    g.at(0, y) = 1.0;
    g.at(15, y) = 1.0;
  }
  const std::size_t iters = jacobi_solve(g, 1e-7, 20000);
  EXPECT_LT(iters, 20000u);
  EXPECT_NEAR(g.at(8, 8), 1.0, 1e-4);
}

TEST(Stencil, ResidualMonotonicallyUseful) {
  Grid2D g(12, 12, 0.0);
  g.at(5, 5) = 100.0;
  Grid2D tmp = g;
  const double r1 = jacobi_step(g, tmp);
  Grid2D tmp2 = tmp;
  const double r2 = jacobi_step(tmp, tmp2);
  EXPECT_LT(r2, r1);
}

TEST(Stencil, HaloBytesFavourSquareTiles) {
  // 2-D (4×4) decomposition cuts less halo than 1-D (16×1) for a square
  // grid — the locality argument behind hierarchical partitioning.
  const auto square = halo_bytes_per_sweep(1024, 1024, 4, 4);
  const auto strip = halo_bytes_per_sweep(1024, 1024, 16, 1);
  EXPECT_LT(square, strip);
}

TEST(Stencil, GridBoundsChecked) {
  Grid2D g(4, 4);
  EXPECT_THROW(g.at(4, 0), CheckError);
  EXPECT_THROW(Grid2D(2, 2), CheckError);
}

// --- Monte Carlo -------------------------------------------------------------

TEST(MonteCarlo, ConvergesToBlackScholes) {
  OptionParams p;
  const double exact = black_scholes_call(p);
  const auto mc = price_european_call(p, 200000, 42);
  EXPECT_NEAR(mc.price, exact, 4.0 * mc.std_error + 0.01);
  EXPECT_LT(mc.std_error, 0.1);
}

TEST(MonteCarlo, StdErrorShrinksWithPaths) {
  OptionParams p;
  const auto small = price_european_call(p, 1000, 7);
  const auto big = price_european_call(p, 64000, 7);
  EXPECT_LT(big.std_error, small.std_error);
}

TEST(MonteCarlo, Deterministic) {
  OptionParams p;
  const auto a = price_european_call(p, 5000, 11);
  const auto b = price_european_call(p, 5000, 11);
  EXPECT_DOUBLE_EQ(a.price, b.price);
}

TEST(MonteCarlo, DeepInTheMoneyNearIntrinsic) {
  OptionParams p;
  p.spot = 200.0;
  p.strike = 100.0;
  const auto mc = price_european_call(p, 100000, 3);
  const double intrinsic =
      p.spot - p.strike * std::exp(-p.rate * p.maturity);
  EXPECT_NEAR(mc.price, intrinsic, 2.0);
}

// --- CART ----------------------------------------------------------------------

TEST(Cart, BlobsAreLearnable) {
  const auto data = make_blobs(600, 6, 3, 42);
  const auto tree = build_tree(data);
  EXPECT_GT(accuracy(*tree, data), 0.85);
}

TEST(Cart, SplitSeparatesObviousData) {
  Dataset d;
  d.features = 1;
  d.classes = 2;
  for (int i = 0; i < 10; ++i) {
    d.rows.push_back({static_cast<double>(i)});
    d.labels.push_back(i < 5 ? 0 : 1);
  }
  std::vector<std::size_t> rows(10);
  for (std::size_t i = 0; i < 10; ++i) rows[i] = i;
  const auto split = best_split(d, rows);
  ASSERT_TRUE(split.valid);
  EXPECT_EQ(split.feature, 0u);
  EXPECT_NEAR(split.threshold, 4.5, 1e-9);
  EXPECT_NEAR(split.gini, 0.0, 1e-9);
}

TEST(Cart, NoSplitOnPureNode) {
  Dataset d;
  d.features = 2;
  d.classes = 2;
  for (int i = 0; i < 6; ++i) {
    d.rows.push_back({1.0, 2.0});
    d.labels.push_back(0);
  }
  std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5};
  const auto split = best_split(d, rows);
  EXPECT_FALSE(split.valid);  // identical features: nothing to split on
}

TEST(Cart, DepthLimitRespected) {
  const auto data = make_blobs(400, 4, 2, 1);
  CartConfig cfg;
  cfg.max_depth = 1;
  const auto stump = build_tree(data, cfg);
  if (!stump->leaf) {
    EXPECT_TRUE(stump->left->leaf);
    EXPECT_TRUE(stump->right->leaf);
  }
}

TEST(Cart, PredictIsTotal) {
  const auto data = make_blobs(100, 3, 2, 9);
  const auto tree = build_tree(data);
  for (const auto& row : data.rows) {
    const int label = predict(*tree, row);
    EXPECT_GE(label, 0);
    EXPECT_LT(label, data.classes);
  }
}

// --- sort -------------------------------------------------------------------------

TEST(Sort, SampleSortProducesSortedOutput) {
  const auto keys = make_keys(10000, 77);
  const auto trace = sample_sort(keys, 4);
  ASSERT_EQ(trace.sorted.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(trace.sorted.begin(), trace.sorted.end()));
  auto ref = keys;
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(trace.sorted, ref);
}

TEST(Sort, SingleRankNoTraffic) {
  const auto keys = make_keys(1000, 3);
  const auto trace = sample_sort(keys, 1);
  EXPECT_EQ(trace.alltoall_bytes, 0u);
  EXPECT_TRUE(std::is_sorted(trace.sorted.begin(), trace.sorted.end()));
}

TEST(Sort, TrafficScalesWithRanks) {
  const auto keys = make_keys(20000, 5);
  const auto t2 = sample_sort(keys, 2);
  const auto t8 = sample_sort(keys, 8);
  EXPECT_GT(t8.alltoall_bytes, t2.alltoall_bytes);
}

TEST(Sort, PartitionRespectsSplitters) {
  const std::vector<std::uint64_t> keys{5, 10, 15, 20, 25};
  const std::vector<std::uint64_t> splitters{10, 20};
  const auto buckets = partition_keys(keys, splitters);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], (std::vector<std::uint64_t>{5, 10}));
  EXPECT_EQ(buckets[1], (std::vector<std::uint64_t>{15, 20}));
  EXPECT_EQ(buckets[2], (std::vector<std::uint64_t>{25}));
}

TEST(Sort, SplittersAreSortedAndOneFewerThanBuckets) {
  const std::vector<std::vector<std::uint64_t>> per_rank{
      {9, 1, 5, 3}, {8, 2, 6, 4}, {}};
  const auto splitters = choose_splitters(per_rank, 4);
  ASSERT_EQ(splitters.size(), 3u);
  EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));
  EXPECT_GE(splitters.front(), 1u);
  EXPECT_LE(splitters.back(), 9u);
  // With no keys anywhere every key lands in the single bucket.
  EXPECT_TRUE(choose_splitters({{}, {}}, 4).empty());
  EXPECT_THROW(choose_splitters(per_rank, 0), CheckError);
}

TEST(Sort, SplittersRoughlyBalance) {
  const auto keys = make_keys(40000, 13);
  const auto trace = sample_sort(keys, 8);
  // With uniform keys and regular sampling the largest bucket should not
  // exceed twice the ideal share.
  EXPECT_EQ(trace.local_sort_keys, keys.size());
}

// --- k-means -----------------------------------------------------------------------

TEST(Kmeans, RecoversWellSeparatedClusters) {
  const auto points = make_clustered_points(600, 3, 4, 11);
  const auto r = kmeans(points, 4, 100, 11);
  EXPECT_LT(r.iterations, 100u);
  // With blobs of sigma 1 around lattice centres >= 10 apart, the average
  // squared distance to the assigned centroid is ~dims.
  EXPECT_LT(r.inertia / 600.0, 2.0 * 3.0);
  // Every cluster is used.
  std::vector<int> counts(4, 0);
  for (const int a : r.assignment) ++counts[static_cast<std::size_t>(a)];
  for (const int c : counts) EXPECT_GT(c, 0);
}

TEST(Kmeans, Deterministic) {
  const auto points = make_clustered_points(200, 2, 3, 5);
  const auto a = kmeans(points, 3, 50, 9);
  const auto b = kmeans(points, 3, 50, 9);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(Kmeans, KEqualsOneGivesCentroidAtMean) {
  const auto points = make_clustered_points(100, 2, 1, 3);
  const auto r = kmeans(points, 1, 50, 1);
  double mx = 0.0;
  double my = 0.0;
  for (const auto& p : points) {
    mx += p[0];
    my += p[1];
  }
  EXPECT_NEAR(r.centroids[0][0], mx / 100.0, 1e-9);
  EXPECT_NEAR(r.centroids[0][1], my / 100.0, 1e-9);
}

TEST(Kmeans, MoreClustersNeverWorseInertia) {
  const auto points = make_clustered_points(300, 2, 4, 7);
  const auto k2 = kmeans(points, 2, 100, 7);
  const auto k4 = kmeans(points, 4, 100, 7);
  EXPECT_LE(k4.inertia, k2.inertia);
}

}  // namespace
}  // namespace ecoscale::apps
