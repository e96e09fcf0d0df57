#include <gtest/gtest.h>

#include "address/address.h"
#include "address/ownership.h"
#include "address/page_table.h"
#include "address/progressive.h"
#include "address/smmu.h"
#include "common/check.h"

namespace ecoscale {
namespace {

TEST(GlobalAddress, EncodeDecodeRoundTrip) {
  const GlobalAddress a(3, 7, 0x123456);
  EXPECT_EQ(a.node(), 3);
  EXPECT_EQ(a.worker(), 7);
  EXPECT_EQ(a.offset(), 0x123456u);
  EXPECT_EQ(GlobalAddress::from_raw(a.raw()), a);
}

TEST(GlobalAddress, FieldLimitsEnforced) {
  EXPECT_NO_THROW(GlobalAddress(255, 255, GlobalAddress::kOffsetMask));
  EXPECT_THROW(GlobalAddress(0, 0, GlobalAddress::kOffsetMask + 1),
               CheckError);
}

TEST(GlobalAddress, ArithmeticStaysInWorker) {
  const GlobalAddress a(1, 2, 100);
  const GlobalAddress b = a + 28;
  EXPECT_EQ(b.node(), 1);
  EXPECT_EQ(b.worker(), 2);
  EXPECT_EQ(b.offset(), 128u);
}

TEST(GlobalAddress, HomeCoordinate) {
  const GlobalAddress a(5, 1, 0);
  EXPECT_EQ(a.home(), (WorkerCoord{5, 1}));
  EXPECT_EQ(a.home().str(), "n5.w1");
}

TEST(GlobalAddress, PageOfUsesRawAddress) {
  const GlobalAddress a(0, 0, kPageSize - 1);
  const GlobalAddress b(0, 0, kPageSize);
  EXPECT_EQ(page_of(a) + 1, page_of(b));
  // Different workers never share pages.
  const GlobalAddress c(0, 1, kPageSize - 1);
  EXPECT_NE(page_of(a), page_of(c));
}

TEST(PageTable, MapLookupUnmap) {
  PageTable pt(4);
  EXPECT_FALSE(pt.lookup(10).has_value());
  pt.map(10, 20);
  EXPECT_EQ(pt.lookup(10).value(), 20u);
  EXPECT_TRUE(pt.is_mapped(10));
  pt.unmap(10);
  EXPECT_FALSE(pt.is_mapped(10));
  EXPECT_EQ(pt.levels(), 4);
}

TEST(PageTable, EntryCountTracksMappings) {
  PageTable pt(3);
  pt.map(1, 100);
  pt.map(2, 200);
  EXPECT_EQ(pt.entry_count(), 2u);
  pt.map(1, 101);  // remapping replaces, it does not add
  EXPECT_EQ(pt.entry_count(), 2u);
  EXPECT_EQ(pt.lookup(1).value(), 101u);
  pt.unmap(2);
  pt.unmap(2);  // unmapping an absent page is harmless
  EXPECT_EQ(pt.entry_count(), 1u);
}

TEST(PageTable, RejectsBadLevelCount) {
  EXPECT_THROW(PageTable(0), CheckError);
  EXPECT_THROW(PageTable(7), CheckError);
}

class SmmuTest : public ::testing::Test {
 protected:
  SmmuConfig cfg_;
  void map_one(Smmu& smmu, ContextId ctx, PageId va, PageId ipa, PageId pa) {
    smmu.stage1(ctx).map(va, ipa);
    smmu.stage2().map(ipa, pa);
  }
};

TEST_F(SmmuTest, MissThenHit) {
  Smmu smmu(cfg_);
  map_one(smmu, 1, 100, 200, 300);
  const auto first = smmu.translate(1, 100);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->phys_page, 300u);
  EXPECT_FALSE(first->tlb_hit);
  const auto second = smmu.translate(1, 100);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->tlb_hit);
  EXPECT_LT(second->latency, first->latency);
  EXPECT_EQ(smmu.walks(), 1u);
  EXPECT_EQ(smmu.hits(), 1u);
}

TEST_F(SmmuTest, NestedWalkAccessCount) {
  Smmu smmu(cfg_);
  map_one(smmu, 1, 1, 2, 3);
  (void)smmu.translate(1, 1);
  // (s1+1)*(s2+1)-1 with defaults 4 and 3 = 19.
  EXPECT_EQ(smmu.walk_accesses(), 19u);
}

TEST_F(SmmuTest, FaultOnUnmapped) {
  Smmu smmu(cfg_);
  EXPECT_FALSE(smmu.translate(1, 42).has_value());
  // Stage-1 present but stage-2 missing is still a fault.
  smmu.stage1(2).map(5, 6);
  EXPECT_FALSE(smmu.translate(2, 5).has_value());
}

TEST_F(SmmuTest, TlbEvictsLru) {
  cfg_.tlb_entries = 2;
  Smmu smmu(cfg_);
  map_one(smmu, 1, 1, 11, 21);
  map_one(smmu, 1, 2, 12, 22);
  map_one(smmu, 1, 3, 13, 23);
  (void)smmu.translate(1, 1);
  (void)smmu.translate(1, 2);
  (void)smmu.translate(1, 3);  // evicts page 1
  const auto again = smmu.translate(1, 1);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->tlb_hit);
  EXPECT_EQ(smmu.walks(), 4u);
}

TEST_F(SmmuTest, ContextsAreIsolated) {
  Smmu smmu(cfg_);
  map_one(smmu, 1, 100, 200, 300);
  EXPECT_TRUE(smmu.translate(1, 100).has_value());
  EXPECT_FALSE(smmu.translate(2, 100).has_value());
}

TEST_F(SmmuTest, InvalidateContextFlushesItsEntries) {
  Smmu smmu(cfg_);
  map_one(smmu, 1, 1, 10, 20);
  smmu.stage1(2).map(1, 11);
  smmu.stage2().map(11, 21);
  (void)smmu.translate(1, 1);
  (void)smmu.translate(2, 1);
  smmu.invalidate(1);
  const auto ctx1 = smmu.translate(1, 1);
  const auto ctx2 = smmu.translate(2, 1);
  EXPECT_FALSE(ctx1->tlb_hit);
  EXPECT_TRUE(ctx2->tlb_hit);
}

TEST_F(SmmuTest, HitRateAndEnergyAccumulate) {
  Smmu smmu(cfg_);
  map_one(smmu, 1, 1, 2, 3);
  (void)smmu.translate(1, 1);
  (void)smmu.translate(1, 1);
  EXPECT_DOUBLE_EQ(smmu.hit_rate(), 0.5);
  EXPECT_GT(smmu.energy(), 0.0);
}

TEST(Ownership, RegisterAndQuery) {
  OwnershipDirectory dir;
  dir.register_page(10, 2);
  EXPECT_TRUE(dir.is_registered(10));
  EXPECT_EQ(dir.owner(10).value(), 2);
  EXPECT_FALSE(dir.owner(11).has_value());
  EXPECT_THROW(dir.register_page(10, 3), CheckError);
}

TEST(Ownership, UnimemCacheabilityInvariant) {
  OwnershipDirectory dir;
  dir.register_page(10, 2);
  EXPECT_TRUE(dir.cacheable_at(10, 2));
  EXPECT_FALSE(dir.cacheable_at(10, 1));
  EXPECT_FALSE(dir.cacheable_at(99, 2));
}

TEST(Ownership, MigrationMovesCacheability) {
  OwnershipDirectory dir;
  dir.register_page(10, 0);
  EXPECT_EQ(dir.migrate(10, 3), 0);
  EXPECT_TRUE(dir.cacheable_at(10, 3));
  EXPECT_FALSE(dir.cacheable_at(10, 0));
  EXPECT_EQ(dir.migrations(), 1u);
  // Self-migration is a no-op.
  dir.migrate(10, 3);
  EXPECT_EQ(dir.migrations(), 1u);
  EXPECT_THROW(dir.migrate(99, 0), CheckError);
}

TEST(Ownership, SparseOffsetsBehaveLikeDenseOnes) {
  // Offsets past the dense per-segment cap take the hash-map fallback;
  // the directory must answer identically for both.
  OwnershipDirectory dir;
  const PageId dense = (PageId{3} << 36) | 5;
  const PageId sparse = (PageId{3} << 36) | (PageId{1} << 30);
  dir.register_page(dense, 1);
  dir.register_page(sparse, 1);
  EXPECT_EQ(dir.page_count(), 2u);
  EXPECT_TRUE(dir.is_registered(sparse));
  EXPECT_TRUE(dir.cacheable_at(sparse, 1));
  EXPECT_EQ(dir.migrate(sparse, 4), 1);
  EXPECT_EQ(dir.owner(sparse).value(), 4);
  EXPECT_EQ(dir.owner(dense).value(), 1);
  EXPECT_EQ(dir.migrations(), 1u);
  EXPECT_THROW(dir.register_page(sparse, 2), CheckError);
  EXPECT_FALSE(dir.owner(sparse + 1).has_value());
}

TEST(Progressive, LocalNeedsOnlyLevelZero) {
  ProgressiveTranslator pt({nanoseconds(2), nanoseconds(10), nanoseconds(50)});
  const auto r = pt.translate({0, 0}, {0, 0});
  EXPECT_EQ(r.steps.size(), 1u);
  EXPECT_EQ(r.total_latency, nanoseconds(2));
}

TEST(Progressive, IntraNodeStopsAtLevelOne) {
  ProgressiveTranslator pt({nanoseconds(2), nanoseconds(10), nanoseconds(50)});
  const auto r = pt.translate({0, 0}, {0, 3});
  EXPECT_EQ(r.steps.size(), 2u);
  EXPECT_EQ(r.total_latency, nanoseconds(12));
}

TEST(Progressive, CrossNodeClimbsAllLevels) {
  ProgressiveTranslator pt({nanoseconds(2), nanoseconds(10), nanoseconds(50)});
  const auto r = pt.translate({0, 0}, {1, 0});
  EXPECT_EQ(r.steps.size(), 3u);
  EXPECT_EQ(r.total_latency, nanoseconds(62));
}

}  // namespace
}  // namespace ecoscale
