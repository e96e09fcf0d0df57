#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/check.h"
#include "mpi/mpi.h"

namespace ecoscale {
namespace {

std::vector<SimTime> zeros(std::size_t n) { return std::vector<SimTime>(n, 0); }

TEST(MpiP2p, EagerSmallMessage) {
  MpiWorld world(4);
  const auto r = world.send(0, 1, 1024, 0);
  EXPECT_GT(r.delivered, r.sent);
  EXPECT_GT(r.energy, 0.0);
  EXPECT_EQ(world.messages_sent(), 1u);
  EXPECT_EQ(world.bytes_sent(), 1024u);
}

TEST(MpiP2p, RendezvousAddsHandshake) {
  MpiConfig cfg;
  MpiWorld world(2, cfg);
  const auto eager = world.send(0, 1, cfg.eager_threshold, 0);
  MpiWorld world2(2, cfg);
  const auto rndv = world2.send(0, 1, cfg.eager_threshold + 1, 0);
  // The rendezvous message carries one more byte but pays an extra RTT.
  const auto bw_time =
      cfg.link.bandwidth.transfer_time(1);
  EXPECT_GT(rndv.delivered, eager.delivered + bw_time);
}

TEST(MpiP2p, SelfSendSkipsNetwork) {
  MpiWorld world(2);
  const auto r = world.send(1, 1, 4096, 100);
  EXPECT_EQ(r.delivered, r.sent);
}

TEST(MpiP2p, LargerMessagesTakeLonger) {
  MpiWorld world(2);
  const auto small = world.send(0, 1, 1024, 0);
  MpiWorld world2(2);
  const auto big = world2.send(0, 1, mebibytes(4), 0);
  EXPECT_GT(big.delivered, small.delivered);
}

class CollectiveSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CollectiveSize, AllreduceSynchronisesAllRanks) {
  MpiWorld world(GetParam());
  const auto r = world.allreduce(kibibytes(1), zeros(GetParam()));
  // Every rank ends with the same completion ceiling.
  for (const auto t : r.per_rank) EXPECT_LE(t, r.finish);
  if (GetParam() > 1) {
    EXPECT_GT(r.messages, 0u);
  }
}

TEST_P(CollectiveSize, AllreduceMessageCountFollowsRecursiveDoubling) {
  // Round k pairs r with r + 2^k (bit k of r clear); each pair exchanges
  // two messages. Power-of-two P gives P * log2(P); each rank beyond the
  // largest power of two adds one message in and one back out.
  const std::map<std::size_t, std::uint64_t> expected{
      {1, 0}, {2, 2}, {3, 4}, {4, 8}, {8, 24}, {16, 64}};
  MpiWorld world(GetParam());
  const auto r = world.allreduce(kibibytes(1), zeros(GetParam()));
  EXPECT_EQ(r.messages, expected.at(GetParam()));
  EXPECT_EQ(r.bytes_on_wire, r.messages * kibibytes(1));
}

TEST_P(CollectiveSize, AlltoallExchangesEveryOrderedPairOnce) {
  const std::size_t p = GetParam();
  MpiWorld world(p);
  const auto r = world.alltoall(kibibytes(2), zeros(p));
  EXPECT_EQ(r.messages, p * (p - 1));
  EXPECT_EQ(r.bytes_on_wire, p * (p - 1) * kibibytes(2));
}

TEST_P(CollectiveSize, AlltoallEveryRankWaitsForEveryPeer) {
  // Every rank receives a block from every peer, so no rank can finish
  // before the last one has arrived.
  const std::size_t p = GetParam();
  MpiWorld world(p);
  std::vector<SimTime> arrivals(p, 0);
  arrivals.back() = milliseconds(1);
  const auto r = world.alltoall(kibibytes(1), arrivals);
  ASSERT_EQ(r.per_rank.size(), p);
  for (const auto t : r.per_rank) EXPECT_GE(t, milliseconds(1));
}

TEST_P(CollectiveSize, PerRankTimesNeverPrecedeOwnArrival) {
  const std::size_t p = GetParam();
  std::vector<SimTime> arrivals(p);
  for (std::size_t i = 0; i < p; ++i) arrivals[i] = nanoseconds(100) * i;
  MpiWorld world(p);
  for (const auto& r : {world.allreduce(512, arrivals),
                        world.alltoall(512, arrivals)}) {
    ASSERT_EQ(r.per_rank.size(), p);
    SimTime last = 0;
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_GE(r.per_rank[i], arrivals[i]);
      last = std::max(last, r.per_rank[i]);
    }
    EXPECT_EQ(r.finish, last);
  }
}

TEST_P(CollectiveSize, WorldCountersMatchCollectiveResults) {
  const std::size_t p = GetParam();
  MpiWorld world(p);
  const auto a = world.allreduce(kibibytes(1), zeros(p));
  const auto b = world.alltoall(kibibytes(32), zeros(p));
  EXPECT_EQ(world.messages_sent(), a.messages + b.messages);
  EXPECT_EQ(world.bytes_sent(), a.bytes_on_wire + b.bytes_on_wire);
  EXPECT_NEAR(world.energy().total(), a.energy + b.energy,
              1e-9 * (a.energy + b.energy));
  EXPECT_EQ(world.energy().total() > 0.0, p > 1);
}

TEST_P(CollectiveSize, LargerPayloadNeverFinishesEarlier) {
  const std::size_t p = GetParam();
  MpiWorld small_world(p);
  MpiWorld big_world(p);
  const auto small = small_world.allreduce(kibibytes(1), zeros(p));
  const auto big = big_world.allreduce(kibibytes(64), zeros(p));
  EXPECT_GE(big.finish, small.finish);
  EXPECT_EQ(big.finish > small.finish, p > 1);
  const auto small_x = small_world.alltoall(kibibytes(1), zeros(p));
  const auto big_x = big_world.alltoall(kibibytes(64), zeros(p));
  EXPECT_EQ(big_x.finish > small_x.finish, p > 1);
}

TEST_P(CollectiveSize, PeriodicRingHasTwoNeighboursPerRank) {
  const std::size_t p = GetParam();
  CartTopology ring({p}, /*periodic=*/true);
  ASSERT_EQ(ring.size(), p);
  for (std::size_t r = 0; r < p; ++r) {
    EXPECT_EQ(ring.neighbors(r).size(), p == 1 ? 0u : 2u);
    const auto next = ring.shift(r, 0, 1);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, (r + 1) % p);
    EXPECT_EQ(ring.shift(*next, 0, -1).value(), r);
  }
}

TEST_P(CollectiveSize, AllreduceWaitsForEveryRank) {
  // Every rank's result depends on every contribution, whichever rank
  // arrives last: no rank may finish before the last arrival. At
  // non-power-of-two sizes this needs the fold-in and fold-out legs.
  const std::size_t p = GetParam();
  for (std::size_t late = 0; late < p; ++late) {
    MpiWorld world(p);
    std::vector<SimTime> arrivals(p, 0);
    arrivals[late] = milliseconds(1);
    const auto r = world.allreduce(kibibytes(1), arrivals);
    ASSERT_EQ(r.per_rank.size(), p);
    for (std::size_t rank = 0; rank < p; ++rank) {
      if (p == 1) {
        EXPECT_EQ(r.per_rank[rank], milliseconds(1));
      } else {
        EXPECT_GT(r.per_rank[rank], milliseconds(1))
            << "rank " << rank << " of " << p << ", late rank " << late;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSize,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Collectives, AlltoallQuadraticBytes) {
  MpiWorld world(4);
  const auto r = world.alltoall(kibibytes(1), zeros(4));
  EXPECT_EQ(r.bytes_on_wire, 4u * 3u * kibibytes(1));
}

TEST(Collectives, NonPowerOfTwoRanksWork) {
  MpiWorld world(5);
  EXPECT_NO_THROW(world.allreduce(512, zeros(5)));
  EXPECT_NO_THROW(world.alltoall(512, zeros(5)));
}

TEST(CartTopology, ThreeDimensionalGrid) {
  CartTopology cart({3, 3, 3}, /*periodic=*/false);
  EXPECT_EQ(cart.ndims(), 3u);
  EXPECT_EQ(cart.dims(), (std::vector<std::size_t>{3, 3, 3}));
  EXPECT_EQ(cart.size(), 27u);
  const std::vector<std::size_t> centre{1, 1, 1};
  EXPECT_EQ(cart.neighbors(cart.rank_of(centre)).size(), 6u);
  EXPECT_EQ(cart.neighbors(0).size(), 3u);  // corner
  // The last dimension varies fastest.
  EXPECT_EQ(cart.shift(0, 2, 1).value(), 1u);
  EXPECT_EQ(cart.shift(0, 0, 1).value(), 9u);
  EXPECT_THROW(cart.coords_of(27), CheckError);
}

TEST(CartTopology, RankCoordsRoundTrip) {
  CartTopology cart({3, 4}, /*periodic=*/false);
  EXPECT_EQ(cart.size(), 12u);
  for (std::size_t r = 0; r < cart.size(); ++r) {
    EXPECT_EQ(cart.rank_of(cart.coords_of(r)), r);
  }
}

TEST(CartTopology, NonPeriodicBoundary) {
  CartTopology cart({3, 3}, false);
  EXPECT_FALSE(cart.shift(0, 0, -1).has_value());  // corner
  EXPECT_TRUE(cart.shift(0, 0, 1).has_value());
  EXPECT_EQ(cart.neighbors(4).size(), 4u);  // center has all 4
  EXPECT_EQ(cart.neighbors(0).size(), 2u);  // corner has 2
}

TEST(CartTopology, PeriodicWrapsAround) {
  CartTopology cart({4}, true);
  EXPECT_EQ(cart.shift(0, 0, -1).value(), 3u);
  EXPECT_EQ(cart.shift(3, 0, 1).value(), 0u);
  EXPECT_EQ(cart.neighbors(0).size(), 2u);
}

TEST(CartTopology, ShiftMovesAlongOneDim) {
  CartTopology cart({3, 3}, false);
  // rank = x*3 + y with dims {3,3}: shifting dim 0 moves by 3.
  const auto n = cart.shift(0, 0, 1);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 3u);
  const auto m = cart.shift(0, 1, 1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, 1u);
}

}  // namespace
}  // namespace ecoscale
