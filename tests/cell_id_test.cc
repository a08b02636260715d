// Tests for the S2-style hierarchical cell ids.

#include <gtest/gtest.h>

#include "raster/cell_id.h"
#include "util/random.h"

namespace dbsa::raster {
namespace {

TEST(CellIdTest, LevelRoundTrip) {
  for (int level = 0; level <= CellId::kMaxLevel; ++level) {
    const CellId c = CellId::FromLevelPrefix(level, 0);
    EXPECT_EQ(c.level(), level);
    EXPECT_EQ(c.prefix(), 0u);
  }
}

TEST(CellIdTest, XYRoundTrip) {
  Rng rng(1);
  for (int level = 1; level <= CellId::kMaxLevel; ++level) {
    for (int i = 0; i < 100; ++i) {
      const uint32_t mask = (level == 32) ? ~0u : ((1u << level) - 1);
      const uint32_t x = static_cast<uint32_t>(rng.Next()) & mask;
      const uint32_t y = static_cast<uint32_t>(rng.Next()) & mask;
      const CellId c = CellId::FromXY(level, x, y);
      EXPECT_EQ(c.level(), level);
      uint32_t dx, dy;
      c.ToXY(&dx, &dy);
      ASSERT_EQ(dx, x);
      ASSERT_EQ(dy, y);
    }
  }
}

TEST(CellIdTest, ParentChildNavigation) {
  const CellId c = CellId::FromXY(10, 513, 274);
  const CellId parent = c.Parent();
  EXPECT_EQ(parent.level(), 9);
  uint32_t px, py;
  parent.ToXY(&px, &py);
  EXPECT_EQ(px, 513u >> 1);
  EXPECT_EQ(py, 274u >> 1);

  bool found = false;
  for (int i = 0; i < 4; ++i) {
    if (parent.Child(i) == c) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CellIdTest, AncestorAtLevel) {
  const CellId c = CellId::FromXY(12, 4095, 1);
  const CellId anc = c.Parent(5);
  EXPECT_EQ(anc.level(), 5);
  uint32_t ax, ay;
  anc.ToXY(&ax, &ay);
  EXPECT_EQ(ax, 4095u >> 7);
  EXPECT_EQ(ay, 1u >> 7);
}

TEST(CellIdTest, LeafRangesNestExactly) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const int level = 1 + static_cast<int>(rng.Below(CellId::kMaxLevel));
    const uint32_t mask = (1u << level) - 1;
    const CellId c = CellId::FromXY(level, static_cast<uint32_t>(rng.Next()) & mask,
                                    static_cast<uint32_t>(rng.Next()) & mask);
    // Children partition the parent's leaf range.
    if (level < CellId::kMaxLevel) {
      uint64_t covered = 0;
      for (int k = 0; k < 4; ++k) {
        const CellId child = c.Child(k);
        ASSERT_TRUE(c.Covers(child));
        ASSERT_GE(child.LeafKeyMin(), c.LeafKeyMin());
        ASSERT_LE(child.LeafKeyMax(), c.LeafKeyMax());
        covered += child.LeafKeyMax() - child.LeafKeyMin() + 1;
      }
      ASSERT_EQ(covered, c.LeafKeyMax() - c.LeafKeyMin() + 1);
    }
  }
}

TEST(CellIdTest, RangeSizeMatchesLevel) {
  const CellId c = CellId::FromXY(20, 77, 33);
  const int below = CellId::kMaxLevel - 20;
  EXPECT_EQ(c.LeafKeyMax() - c.LeafKeyMin() + 1, 1ull << (2 * below));
}

TEST(CellIdTest, LeafCellRangeIsSingleton) {
  const CellId c = CellId::FromXY(CellId::kMaxLevel, 123456, 654321);
  EXPECT_EQ(c.LeafKeyMin(), c.LeafKeyMax());
}

TEST(CellIdTest, CoversIsReflexiveAndAntisymmetricAcrossLevels) {
  const CellId parent = CellId::FromXY(8, 10, 20);
  const CellId child = parent.Child(2).Child(1);
  EXPECT_TRUE(parent.Covers(parent));
  EXPECT_TRUE(parent.Covers(child));
  EXPECT_FALSE(child.Covers(parent));
  const CellId sibling = CellId::FromXY(8, 11, 20);
  EXPECT_FALSE(parent.Covers(sibling));
  EXPECT_FALSE(sibling.Covers(child));
}

TEST(CellIdTest, SiblingRangesAreDisjointAndOrdered) {
  const CellId parent = CellId::FromXY(6, 5, 9);
  uint64_t prev_max = 0;
  for (int k = 0; k < 4; ++k) {
    const CellId child = parent.Child(k);
    if (k > 0) {
      ASSERT_EQ(child.LeafKeyMin(), prev_max + 1);
    } else {
      ASSERT_EQ(child.LeafKeyMin(), parent.LeafKeyMin());
    }
    prev_max = child.LeafKeyMax();
  }
  EXPECT_EQ(prev_max, parent.LeafKeyMax());
}

TEST(CellIdTest, FromLeafKeyMatchesFromXY) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t mask = (1u << CellId::kMaxLevel) - 1;
    const uint32_t x = static_cast<uint32_t>(rng.Next()) & mask;
    const uint32_t y = static_cast<uint32_t>(rng.Next()) & mask;
    const CellId direct = CellId::FromXY(CellId::kMaxLevel, x, y);
    const CellId via_key = CellId::FromLeafKey(sfc::MortonEncode(x, y));
    ASSERT_EQ(direct, via_key);
  }
}

}  // namespace
}  // namespace dbsa::raster
