#include "reference_shadow.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "shadow/reducer_shadow.hpp"
#include "support/rng.hpp"

namespace rader::shadow {
namespace {

TEST(ShadowSpace, UnsetAddressesAreEmpty) {
  ShadowSpace s;
  EXPECT_EQ(s.get(0), ShadowSpace::kEmpty);
  EXPECT_EQ(s.get(0xdeadbeef), ShadowSpace::kEmpty);
  EXPECT_EQ(s.page_count(), 0u);  // get never allocates
}

TEST(ShadowSpace, SetThenGet) {
  ShadowSpace s;
  s.set(0x1000, 7);
  EXPECT_EQ(s.get(0x1000), 7u);
  EXPECT_EQ(s.get(0x1001), ShadowSpace::kEmpty);
}

TEST(ShadowSpace, AdjacentBytesAreIndependent) {
  ShadowSpace s;
  for (std::uintptr_t a = 0x2000; a < 0x2010; ++a) {
    s.set(a, static_cast<std::uint32_t>(a & 0xff));
  }
  for (std::uintptr_t a = 0x2000; a < 0x2010; ++a) {
    EXPECT_EQ(s.get(a), (a & 0xff));
  }
}

TEST(ShadowSpace, CrossesPageBoundaries) {
  ShadowSpace s;
  const std::uintptr_t boundary = 4096 * 10;
  s.set(boundary - 1, 1);
  s.set(boundary, 2);
  EXPECT_EQ(s.get(boundary - 1), 1u);
  EXPECT_EQ(s.get(boundary), 2u);
  EXPECT_EQ(s.page_count(), 2u);
}

TEST(ShadowSpace, OverwriteWins) {
  ShadowSpace s;
  s.set(5, 1);
  s.set(5, 2);
  EXPECT_EQ(s.get(5), 2u);
}

TEST(ShadowSpace, ClearForgets) {
  ShadowSpace s;
  s.set(123, 9);
  s.clear();
  EXPECT_EQ(s.get(123), ShadowSpace::kEmpty);
  EXPECT_EQ(s.page_count(), 0u);
}

TEST(ShadowSpace, ClearInvalidatesTheLookasideCache) {
  // Regression guard for the one-entry page cache: prime the cache, clear(),
  // then read the same address — a stale cached_page_ would serve freed
  // memory (or resurrect old payloads) instead of reporting kEmpty.
  ShadowSpace s;
  s.set(0x3000, 5);
  ASSERT_EQ(s.get(0x3000), 5u);  // primes the lookaside cache
  s.clear();
  EXPECT_EQ(s.get(0x3000), ShadowSpace::kEmpty);
  EXPECT_EQ(s.page_count(), 0u);
  // The space stays fully usable after the wipe.
  s.set(0x3000, 6);
  EXPECT_EQ(s.get(0x3000), 6u);
  EXPECT_EQ(s.page_count(), 1u);
}

TEST(ShadowSpace, ClearThenSetRebuildsCacheCleanly) {
  // set() also goes through the cache (touch_page): interleave clears with
  // sets on two pages and check nothing leaks across the wipes.
  ShadowSpace s;
  for (int round = 0; round < 3; ++round) {
    s.set(0x5000, 1 + round);
    s.set(0x5000 + 4096, 10 + round);
    EXPECT_EQ(s.get(0x5000), static_cast<std::uint32_t>(1 + round));
    EXPECT_EQ(s.get(0x5000 + 4096), static_cast<std::uint32_t>(10 + round));
    s.clear();
    EXPECT_EQ(s.get(0x5000), ShadowSpace::kEmpty);
    EXPECT_EQ(s.get(0x5000 + 4096), ShadowSpace::kEmpty);
  }
}

TEST(ShadowSpace, TopOfAddressSpaceIsAddressable) {
  // The clamp in access_last_byte makes detectors probe UINTPTR_MAX itself;
  // the page map must handle the last page without aliasing the cache's
  // empty sentinel.
  ShadowSpace s;
  const std::uintptr_t top = ~std::uintptr_t{0};
  s.set(top, 4);
  EXPECT_EQ(s.get(top), 4u);
  EXPECT_EQ(s.get(top - 1), ShadowSpace::kEmpty);
  s.set(top - 1, 9);
  EXPECT_EQ(s.get(top - 1), 9u);
  EXPECT_EQ(s.page_count(), 1u);  // both bytes live on the final page
}

TEST(ShadowSpace, MatchesReferenceMapUnderRandomOps) {
  Rng rng(77);
  ShadowSpace s;
  std::unordered_map<std::uintptr_t, std::uint32_t> ref;
  for (int i = 0; i < 20000; ++i) {
    // Cluster addresses so the page cache is exercised.
    const std::uintptr_t addr = 0x10000 + rng.below(3 * 4096);
    if (rng.chance(0.6)) {
      const auto v = static_cast<std::uint32_t>(rng.below(1000));
      s.set(addr, v);
      ref[addr] = v;
    } else {
      const auto it = ref.find(addr);
      EXPECT_EQ(s.get(addr),
                it == ref.end() ? ShadowSpace::kEmpty : it->second);
    }
  }
}

TEST(ShadowSpace, BytesAccountsPages) {
  ShadowSpace s;
  EXPECT_EQ(s.bytes(), 0u);
  s.set(0, 1);
  EXPECT_GT(s.bytes(), 4096u * sizeof(std::uint32_t) - 1);
}

TEST(ReducerShadow, DefaultEntriesAreAbsent) {
  ReducerShadow rs;
  EXPECT_FALSE(rs.has(0));
  EXPECT_FALSE(rs.has(100));
}

TEST(ReducerShadow, StoresReaderAndSpawnCount) {
  ReducerShadow rs;
  rs[3].reader = 17;
  rs[3].spawn_count = 5;
  rs[3].label = "somewhere";
  EXPECT_TRUE(rs.has(3));
  EXPECT_FALSE(rs.has(2));
  EXPECT_EQ(rs[3].reader, 17u);
  EXPECT_EQ(rs[3].spawn_count, 5u);
}

TEST(ReducerShadow, ClearResets) {
  ReducerShadow rs;
  rs[1].reader = 2;
  rs.clear();
  EXPECT_FALSE(rs.has(1));
}

}  // namespace
}  // namespace rader::shadow
