#include <gtest/gtest.h>

#include "common/check.h"
#include "fabric/accelerator.h"
#include "fabric/bitstream.h"
#include "fabric/floorplan.h"
#include "fabric/reconfig.h"

namespace ecoscale {
namespace {

// --- bitstreams -----------------------------------------------------------

TEST(Bitstream, SizeMatchesSlots) {
  const auto bs = generate_bitstream(4, 0.5, 1);
  EXPECT_EQ(bs.size(), 4 * kBytesPerSlot);
}

TEST(Bitstream, Deterministic) {
  const auto a = generate_bitstream(2, 0.5, 7);
  const auto b = generate_bitstream(2, 0.5, 7);
  EXPECT_EQ(a.data, b.data);
  const auto c = generate_bitstream(2, 0.5, 8);
  EXPECT_NE(a.data, c.data);
}

class CompressionRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CompressionRoundTrip, RleIsLossless) {
  const auto bs = generate_bitstream(3, GetParam(), 42);
  const auto c = compress_rle(bs);
  EXPECT_EQ(decompress_rle(c).data, bs.data);
}

TEST_P(CompressionRoundTrip, LzIsLossless) {
  const auto bs = generate_bitstream(3, GetParam(), 42);
  const auto c = compress_lz(bs);
  EXPECT_EQ(decompress_lz(c).data, bs.data);
}

INSTANTIATE_TEST_SUITE_P(Densities, CompressionRoundTrip,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0));

TEST(Compression, SparseBitstreamsCompressWell) {
  const auto sparse = generate_bitstream(4, 0.1, 1);
  const auto dense = generate_bitstream(4, 0.9, 1);
  const auto cs = compress_rle(sparse);
  const auto cd = compress_rle(dense);
  EXPECT_GT(cs.ratio(), 3.0);
  EXPECT_GT(cs.ratio(), cd.ratio());
}

TEST(Compression, LzBeatsRleOnPatternedData) {
  const auto bs = generate_bitstream(4, 0.6, 5);
  const auto rle = compress_rle(bs);
  const auto lz = compress_lz(bs);
  EXPECT_LE(lz.compressed_size, rle.compressed_size);
}

TEST(Compression, EmptyBitstream) {
  Bitstream empty;
  const auto rle = compress_rle(empty);
  EXPECT_EQ(rle.compressed_size, 0u);
  EXPECT_TRUE(decompress_rle(rle).data.empty());
  const auto lz = compress_lz(empty);
  EXPECT_TRUE(decompress_lz(lz).data.empty());
}

// --- floorplan --------------------------------------------------------------

TEST(Floorplan, PlaceAndRemove) {
  Floorplan fp(4, 4);
  const auto r = fp.place(ModuleShape{2, 2});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(fp.used_slots(), 4u);
  EXPECT_TRUE(fp.is_live(*r));
  fp.remove(*r);
  EXPECT_EQ(fp.used_slots(), 0u);
  EXPECT_FALSE(fp.is_live(*r));
  EXPECT_THROW(fp.remove(*r), CheckError);
}

TEST(Floorplan, PlacementRecordsShapeAndSlotsBalance) {
  Floorplan fp(4, 3);
  EXPECT_EQ(fp.total_slots(), 12u);
  const auto a = fp.place(ModuleShape{2, 3});
  const auto b = fp.place(ModuleShape{1, 1});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(fp.placement(*a).shape.slots(), 6u);
  EXPECT_EQ(fp.used_slots() + fp.free_slots(), fp.total_slots());
  EXPECT_EQ(fp.free_slots(), 5u);
  fp.remove(*a);
  EXPECT_FALSE(fp.is_live(*a));
  EXPECT_TRUE(fp.is_live(*b));
  EXPECT_EQ(fp.free_slots(), 11u);
  EXPECT_THROW(fp.placement(*a), CheckError);
  EXPECT_FALSE(fp.is_live(*b + 100));
}

TEST(Floorplan, PlacementsDoNotOverlap) {
  Floorplan fp(4, 2);
  const auto a = fp.place(ModuleShape{2, 2});
  const auto b = fp.place(ModuleShape{2, 2});
  ASSERT_TRUE(a && b);
  const auto& pa = fp.placement(*a);
  const auto& pb = fp.placement(*b);
  const bool overlap_x = pa.x < pb.x + pb.shape.width &&
                         pb.x < pa.x + pa.shape.width;
  const bool overlap_y = pa.y < pb.y + pb.shape.height &&
                         pb.y < pa.y + pa.shape.height;
  EXPECT_FALSE(overlap_x && overlap_y);
}

TEST(Floorplan, FailsWhenFull) {
  Floorplan fp(2, 2);
  EXPECT_TRUE(fp.place(ModuleShape{2, 2}).has_value());
  EXPECT_FALSE(fp.place(ModuleShape{1, 1}).has_value());
  EXPECT_FALSE(fp.can_place(ModuleShape{1, 1}));
}

TEST(Floorplan, RejectsOversized) {
  Floorplan fp(4, 4);
  EXPECT_FALSE(fp.place(ModuleShape{5, 1}).has_value());
}

TEST(Floorplan, FragmentationBlocksPlacementDefragFixes) {
  Floorplan fp(4, 1);
  const auto a = fp.place(ModuleShape{1, 1});  // x=0
  const auto b = fp.place(ModuleShape{1, 1});  // x=1
  const auto c = fp.place(ModuleShape{1, 1});  // x=2
  const auto d = fp.place(ModuleShape{1, 1});  // x=3
  ASSERT_TRUE(a && b && c && d);
  fp.remove(*a);
  fp.remove(*c);
  // Two free slots, but no contiguous 2×1 rectangle.
  EXPECT_EQ(fp.free_slots(), 2u);
  EXPECT_FALSE(fp.can_place(ModuleShape{2, 1}));
  EXPECT_GT(fp.fragmentation(), 0.0);
  const std::size_t moved = fp.defragment();
  EXPECT_GE(moved, 1u);
  EXPECT_TRUE(fp.can_place(ModuleShape{2, 1}));
  EXPECT_DOUBLE_EQ(fp.fragmentation(), 0.0);
  // Survivors stay live at their (possibly new) placements.
  EXPECT_TRUE(fp.is_live(*b));
  EXPECT_TRUE(fp.is_live(*d));
}

TEST(Floorplan, LargestFreeRectangle) {
  Floorplan fp(4, 4);
  EXPECT_EQ(fp.largest_free_rectangle(), 16u);
  (void)fp.place(ModuleShape{4, 1});
  EXPECT_EQ(fp.largest_free_rectangle(), 12u);
}

// --- accelerator modules ------------------------------------------------------

AcceleratorModule test_module(KernelId id = 1, std::size_t w = 2,
                              std::size_t h = 2) {
  AcceleratorModule m;
  m.name = "k" + std::to_string(id);
  m.kernel = id;
  m.shape = ModuleShape{w, h};
  m.pipeline_depth = 10;
  m.initiation_interval = 2;
  m.clock_ghz = 0.25;  // 4 ns cycle
  return m;
}

TEST(AcceleratorModule, PipelineTiming) {
  const auto m = test_module();
  EXPECT_EQ(m.cycle_time(), 4000u);  // ps
  EXPECT_EQ(m.compute_time(0), 0u);
  EXPECT_EQ(m.compute_time(1), 10u * 4000u);
  // depth + (n-1)*II cycles
  EXPECT_EQ(m.compute_time(100), (10 + 99 * 2) * 4000u);
}

TEST(AcceleratorModule, EnergyScalesWithItems) {
  auto m = test_module();
  m.pj_per_item = 7.0;
  EXPECT_DOUBLE_EQ(m.compute_energy(10), 70.0);
}

// --- reconfiguration manager ----------------------------------------------------

ReconfigConfig small_fabric() {
  ReconfigConfig cfg;
  cfg.fabric_width = 4;
  cfg.fabric_height = 4;
  return cfg;
}

TEST(Reconfig, FirstLoadPaysConfigSecondIsFree) {
  ReconfigManager mgr("f", small_fabric());
  const auto m = test_module();
  const auto first = mgr.ensure_loaded(m, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->reconfigured);
  EXPECT_GT(first->ready, 0u);
  const auto second = mgr.ensure_loaded(m, first->ready);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->reconfigured);
  EXPECT_EQ(second->ready, first->ready);
  EXPECT_EQ(mgr.loads(), 1u);
}

TEST(Reconfig, EvictsLruIdleModule) {
  auto cfg = small_fabric();
  cfg.fabric_width = 2;
  cfg.fabric_height = 2;  // fits exactly one 2×2 module
  ReconfigManager mgr("f", cfg);
  const auto a = test_module(1);
  const auto b = test_module(2);
  const auto la = mgr.ensure_loaded(a, 0);
  ASSERT_TRUE(la.has_value());
  const auto lb = mgr.ensure_loaded(b, la->ready + 1);
  ASSERT_TRUE(lb.has_value());
  EXPECT_TRUE(lb->evicted_any);
  EXPECT_FALSE(mgr.is_loaded(1));
  EXPECT_TRUE(mgr.is_loaded(2));
  EXPECT_EQ(mgr.evictions(), 1u);
}

TEST(Reconfig, BusyModuleNotEvicted) {
  auto cfg = small_fabric();
  cfg.fabric_width = 2;
  cfg.fabric_height = 2;
  ReconfigManager mgr("f", cfg);
  const auto a = test_module(1);
  const auto la = mgr.ensure_loaded(a, 0);
  ASSERT_TRUE(la.has_value());
  mgr.set_busy_until(la->region, la->ready + milliseconds(10));
  const auto lb = mgr.ensure_loaded(test_module(2), la->ready + 1);
  EXPECT_FALSE(lb.has_value());  // everything busy, cannot place
  EXPECT_TRUE(mgr.is_loaded(1));
}

TEST(Reconfig, NeverFitsReturnsNull) {
  ReconfigManager mgr("f", small_fabric());
  EXPECT_FALSE(mgr.ensure_loaded(test_module(1, 5, 5), 0).has_value());
}

TEST(Reconfig, BoundingBoxSmallerThanFullRegion) {
  auto bbox_cfg = small_fabric();
  bbox_cfg.bitstream_mode = BitstreamMode::kBoundingBox;
  auto full_cfg = small_fabric();
  full_cfg.bitstream_mode = BitstreamMode::kFullRegion;
  ReconfigManager bbox("b", bbox_cfg);
  ReconfigManager full("f", full_cfg);
  const auto m = test_module(1, 2, 2);  // bbox 4 slots; island 2×4=8 slots
  EXPECT_LT(bbox.wire_bytes_for(m), full.wire_bytes_for(m));
}

TEST(Reconfig, CompressionShrinksWireBytes) {
  auto raw_cfg = small_fabric();
  auto rle_cfg = small_fabric();
  rle_cfg.compression = CompressionMode::kRle;
  auto lz_cfg = small_fabric();
  lz_cfg.compression = CompressionMode::kLz;
  ReconfigManager raw("r", raw_cfg);
  ReconfigManager rle("e", rle_cfg);
  ReconfigManager lz("z", lz_cfg);
  auto m = test_module();
  m.logic_density = 0.3;
  EXPECT_LT(rle.wire_bytes_for(m), raw.wire_bytes_for(m));
  EXPECT_LT(lz.wire_bytes_for(m), raw.wire_bytes_for(m));
}

TEST(Reconfig, CompressionShortensConfigLatency) {
  auto raw_cfg = small_fabric();
  auto lz_cfg = small_fabric();
  lz_cfg.compression = CompressionMode::kLz;
  ReconfigManager raw("r", raw_cfg);
  ReconfigManager lz("z", lz_cfg);
  auto m = test_module();
  m.logic_density = 0.3;
  const auto a = raw.ensure_loaded(m, 0);
  const auto b = lz.ensure_loaded(m, 0);
  ASSERT_TRUE(a && b);
  EXPECT_LT(b->ready, a->ready);
}

TEST(Reconfig, UnloadFreesSpace) {
  auto cfg = small_fabric();
  cfg.fabric_width = 2;
  cfg.fabric_height = 2;
  ReconfigManager mgr("f", cfg);
  ASSERT_TRUE(mgr.ensure_loaded(test_module(1), 0).has_value());
  mgr.unload(1);
  EXPECT_FALSE(mgr.is_loaded(1));
  EXPECT_EQ(mgr.floorplan().used_slots(), 0u);
  EXPECT_THROW(mgr.unload(1), CheckError);
}

TEST(Reconfig, ConfigPortSerializesLoads) {
  ReconfigManager mgr("f", small_fabric());
  const auto a = mgr.ensure_loaded(test_module(1, 2, 2), 0);
  const auto b = mgr.ensure_loaded(test_module(2, 2, 2), 0);
  ASSERT_TRUE(a && b);
  EXPECT_GT(b->ready, a->ready);  // same ICAP port
  EXPECT_GT(mgr.config_bytes(), 0u);
  EXPECT_GT(mgr.energy().total(), 0.0);
}

TEST(Reconfig, DefragmentationRecoversFragmentedFabric) {
  auto cfg = small_fabric();
  cfg.fabric_width = 4;
  cfg.fabric_height = 1;
  ReconfigManager mgr("f", cfg);
  // Fill with four 1×1 modules, unload two non-adjacent ones.
  for (KernelId k = 1; k <= 4; ++k) {
    ASSERT_TRUE(mgr.ensure_loaded(test_module(k, 1, 1), 0).has_value());
  }
  mgr.unload(1);
  mgr.unload(3);
  const auto big = mgr.ensure_loaded(test_module(9, 2, 1), milliseconds(1));
  ASSERT_TRUE(big.has_value());
  EXPECT_GE(mgr.defrag_runs() + (big->evicted_any ? 1u : 0u), 1u);
}

}  // namespace
}  // namespace ecoscale
