#include "pattern/tid_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitwords.h"

namespace tnmine::pattern {
namespace {

using Encoding = TidSet::Encoding;
using EncodingPolicy = TidSet::EncodingPolicy;

/// splitmix64: deterministic across platforms and standard libraries, so
/// the sampled sets (and any failure) reproduce everywhere.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Sorted unique sample of [0, universe) where each element is kept with
/// probability density_pct/100.
std::vector<std::uint32_t> SampleTids(std::uint32_t universe,
                                      std::uint32_t density_pct,
                                      std::uint64_t seed) {
  std::vector<std::uint32_t> out;
  const std::uint64_t threshold =
      (~0ULL / 100) * density_pct;  // keep when hash < threshold
  for (std::uint32_t tid = 0; tid < universe; ++tid) {
    if (Mix64(seed ^ tid) < threshold) out.push_back(tid);
  }
  return out;
}

std::vector<std::uint32_t> ReferenceIntersect(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::uint32_t> ReferenceUnion(const std::vector<std::uint32_t>& a,
                                          const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

TidSet Make(const std::vector<std::uint32_t>& tids, std::uint32_t universe,
            Encoding enc) {
  TidSet s = TidSet::FromSorted(tids, universe);
  s.ConvertTo(enc);
  return s;
}

TEST(TidSetTest, EmptyDefaults) {
  const TidSet s;
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Cardinality(), 0u);
  EXPECT_EQ(s.universe(), 0u);
  EXPECT_EQ(s.ToVector(), std::vector<std::uint32_t>{});
  EXPECT_EQ(s.begin(), s.end());
}

TEST(TidSetTest, FromSortedRoundTripsBothEncodings) {
  const std::vector<std::uint32_t> tids = SampleTids(500, 10, 1);
  for (const Encoding enc : {Encoding::kSparse, Encoding::kBitmap}) {
    const TidSet s = Make(tids, 500, enc);
    EXPECT_EQ(s.encoding(), enc);
    EXPECT_EQ(s.ToVector(), tids);
    EXPECT_EQ(s.Cardinality(), tids.size());
    for (std::uint32_t tid = 0; tid < 500; ++tid) {
      EXPECT_EQ(s.Contains(tid),
                std::binary_search(tids.begin(), tids.end(), tid));
    }
  }
}

TEST(TidSetTest, FromSortedRaisesUniverseToData) {
  const TidSet s = TidSet::FromSorted({3, 90}, /*universe=*/10);
  EXPECT_GE(s.universe(), 91u);
  EXPECT_TRUE(s.Contains(90));
}

TEST(TidSetTest, AppendMatchesFromSorted) {
  const std::vector<std::uint32_t> tids = SampleTids(300, 25, 2);
  for (const Encoding enc : {Encoding::kSparse, Encoding::kBitmap}) {
    TidSet streamed;
    streamed.ConvertTo(enc);
    for (const std::uint32_t tid : tids) streamed.Append(tid);
    streamed.Normalize();
    EXPECT_EQ(streamed, TidSet::FromSorted(tids, 300));
    EXPECT_EQ(streamed.ToVector(), tids);
  }
}

TEST(TidSetTest, IteratorWalksAscendingInBothEncodings) {
  const std::vector<std::uint32_t> tids = SampleTids(257, 50, 3);
  for (const Encoding enc : {Encoding::kSparse, Encoding::kBitmap}) {
    const TidSet s = Make(tids, 257, enc);
    std::vector<std::uint32_t> via_iter;
    for (const std::uint32_t tid : s) via_iter.push_back(tid);
    std::vector<std::uint32_t> via_foreach;
    s.ForEach([&](std::uint32_t tid) { via_foreach.push_back(tid); });
    EXPECT_EQ(via_iter, tids);
    EXPECT_EQ(via_foreach, tids);
  }
}

TEST(TidSetTest, EqualityIsEncodingIndependent) {
  const std::vector<std::uint32_t> tids = SampleTids(400, 5, 4);
  ASSERT_GE(tids.size(), 2u);
  const TidSet sparse = Make(tids, 400, Encoding::kSparse);
  const TidSet bitmap = Make(tids, 400, Encoding::kBitmap);
  EXPECT_EQ(sparse, bitmap);
  TidSet different = bitmap;
  different.IntersectWith(Make({tids.front()}, 400, Encoding::kSparse));
  EXPECT_FALSE(sparse == different);
}

// The core property: every encoding combination intersects to the exact
// reference result, across a sweep of seeds and densities (including the
// 1/32 density boundary where Normalize() flips encodings).
TEST(TidSetTest, IntersectionMatchesReferenceAcrossEncodings) {
  const std::uint32_t universe = 1024;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const std::uint32_t da : {1u, 3u, 30u}) {
      for (const std::uint32_t db : {2u, 4u, 60u}) {
        const auto va = SampleTids(universe, da, seed * 2 + 10);
        const auto vb = SampleTids(universe, db, seed * 2 + 11);
        const auto expect = ReferenceIntersect(va, vb);
        for (const Encoding ea : {Encoding::kSparse, Encoding::kBitmap}) {
          for (const Encoding eb : {Encoding::kSparse, Encoding::kBitmap}) {
            TidSet a = Make(va, universe, ea);
            const TidSet b = Make(vb, universe, eb);
            a.IntersectWith(b);
            EXPECT_EQ(a.ToVector(), expect)
                << "seed=" << seed << " da=" << da << " db=" << db;
            EXPECT_EQ(a.Cardinality(), expect.size());
            // The static variant must agree with the in-place one.
            EXPECT_EQ(TidSet::Intersect(Make(va, universe, ea), b).ToVector(),
                      expect);
          }
        }
      }
    }
  }
}

TEST(TidSetTest, UnionMatchesReferenceAcrossEncodings) {
  const std::uint32_t universe = 777;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto va = SampleTids(universe, 4, seed + 20);
    const auto vb = SampleTids(universe, 40, seed + 90);
    const auto expect = ReferenceUnion(va, vb);
    for (const Encoding ea : {Encoding::kSparse, Encoding::kBitmap}) {
      for (const Encoding eb : {Encoding::kSparse, Encoding::kBitmap}) {
        TidSet a = Make(va, universe, ea);
        a.UnionWith(Make(vb, universe, eb));
        EXPECT_EQ(a.ToVector(), expect) << "seed=" << seed;
        EXPECT_EQ(a.Cardinality(), expect.size());
      }
    }
  }
}

TEST(TidSetTest, IntersectWithEmptyAndDisjoint) {
  const auto tids = SampleTids(200, 30, 5);
  for (const Encoding enc : {Encoding::kSparse, Encoding::kBitmap}) {
    TidSet a = Make(tids, 200, enc);
    a.IntersectWith(TidSet());
    EXPECT_TRUE(a.Empty());
    TidSet b = Make({0, 2, 4}, 10, enc);
    b.IntersectWith(Make({1, 3, 5}, 10, enc));
    EXPECT_TRUE(b.Empty());
    EXPECT_EQ(b.ToVector(), std::vector<std::uint32_t>{});
  }
}

TEST(TidSetTest, NormalizePicksEncodingAtDensityBoundary) {
  const TidSet::ScopedEncodingPolicy auto_policy(EncodingPolicy::kAuto);
  const std::uint32_t universe = 3200;
  // cardinality * 32 == universe: the bitmap side of the boundary.
  std::vector<std::uint32_t> dense_enough(universe / 32);
  for (std::uint32_t i = 0; i < dense_enough.size(); ++i) {
    dense_enough[i] = i * 7;
  }
  EXPECT_EQ(TidSet::FromSorted(dense_enough, universe).encoding(),
            Encoding::kBitmap);
  // One element fewer flips back to sparse.
  std::vector<std::uint32_t> just_sparse = dense_enough;
  just_sparse.pop_back();
  EXPECT_EQ(TidSet::FromSorted(just_sparse, universe).encoding(),
            Encoding::kSparse);
}

TEST(TidSetTest, ForcedPolicyOverridesDensity) {
  const auto tids = SampleTids(256, 50, 6);  // dense: auto would bitmap
  {
    const TidSet::ScopedEncodingPolicy force(EncodingPolicy::kForceSparse);
    EXPECT_EQ(TidSet::FromSorted(tids, 256).encoding(), Encoding::kSparse);
  }
  {
    const TidSet::ScopedEncodingPolicy force(EncodingPolicy::kForceBitmap);
    const auto sparse = SampleTids(4096, 1, 7);  // sparse: auto would array
    EXPECT_EQ(TidSet::FromSorted(sparse, 4096).encoding(), Encoding::kBitmap);
  }
  // Scoped overrides restore the previous policy on destruction.
  EXPECT_EQ(TidSet::GetEncodingPolicy(), EncodingPolicy::kAuto);
}

TEST(TidSetTest, ConvertToRoundTripsAtTheBoundary) {
  const std::uint32_t universe = 640;
  // Exactly universe/32 elements: conversion in both directions must
  // preserve the elements bit-for-bit.
  std::vector<std::uint32_t> tids(universe / 32);
  for (std::uint32_t i = 0; i < tids.size(); ++i) tids[i] = i * 31;
  TidSet s = TidSet::FromSorted(tids, universe);
  s.ConvertTo(Encoding::kBitmap);
  EXPECT_EQ(s.ToVector(), tids);
  s.ConvertTo(Encoding::kSparse);
  EXPECT_EQ(s.ToVector(), tids);
  EXPECT_EQ(s.Cardinality(), tids.size());
}

TEST(TidSetTest, MemoryBytesTracksEncoding) {
  const std::uint32_t universe = 64 * 1024;
  const auto tids = SampleTids(universe, 1, 8);
  TidSet s = TidSet::FromSorted(tids, universe);
  s.ConvertTo(Encoding::kSparse);
  const std::uint64_t sparse_bytes = s.MemoryBytes();
  EXPECT_GE(sparse_bytes, sizeof(TidSet) + 4 * s.Cardinality());
  s.ConvertTo(Encoding::kBitmap);
  // The bitmap spends a word per 64 tids of universe, far more than the
  // 1%-dense array; MemoryBytes must reflect the switch.
  EXPECT_GE(s.MemoryBytes(), sizeof(TidSet) + universe / 8);
  EXPECT_GT(s.MemoryBytes(), sparse_bytes);
}

TEST(TidSetTest, ClearResetsEverything) {
  TidSet s = Make(SampleTids(100, 50, 9), 100, Encoding::kBitmap);
  s.Clear();
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.universe(), 0u);
  EXPECT_EQ(s.ToVector(), std::vector<std::uint32_t>{});
}

// --- ScratchBitset: the word-level machinery under both TidSet bitmaps
// and the VF2 candidate domains.

TEST(ScratchBitsetTest, SetTestClearWords) {
  common::ScratchBitset bits;
  bits.EnsureBits(200);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(199));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_FALSE(bits.Test(128));
  bits.Clear(63);
  EXPECT_FALSE(bits.Test(63));
  EXPECT_TRUE(bits.Test(0));
  EXPECT_EQ(bits.word(0), 1ULL);  // only bit 0 left in word 0
}

TEST(ScratchBitsetTest, ClearTouchedOnlyZeroesTouchedRange) {
  common::ScratchBitset bits;
  bits.EnsureBits(512);
  bits.Set(70);
  bits.Set(130);
  EXPECT_EQ(bits.touched_begin(), 1u);  // word of bit 70
  EXPECT_EQ(bits.touched_end(), 3u);    // one past word of bit 130
  bits.ClearTouched();
  EXPECT_FALSE(bits.Test(70));
  EXPECT_FALSE(bits.Test(130));
  // The touched range resets, so new writes re-track it.
  bits.Set(400);
  EXPECT_EQ(bits.touched_begin(), 6u);
  EXPECT_EQ(bits.touched_end(), 7u);
}

TEST(ScratchBitsetTest, EnsureBitsGrowsZeroed) {
  common::ScratchBitset bits;
  bits.EnsureBits(64);
  bits.Set(10);
  bits.ClearAll();
  bits.EnsureBits(1024);  // grow after use: the new words must be zero
  for (std::uint32_t b = 0; b < 1024; b += 64) {
    EXPECT_FALSE(bits.Test(b));
  }
  EXPECT_GE(bits.MemoryBytes(), 1024 / 8);
}

}  // namespace
}  // namespace tnmine::pattern
