// True-LRU replacement, observed through a small Cache: which way a miss
// fills (AccessResult::way) and which lines survive.
#include <gtest/gtest.h>

#include <cstdint>

#include "hvc/cache/cache.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {
namespace {

constexpr std::size_t kWays = 4;
constexpr std::size_t kSets = 2;
constexpr std::uint64_t kLineBytes = 32;

/// 4 ways x 2 sets of 32 B lines, uncoded and fault-free. The last
/// `ule_ways` ways stay powered at ULE mode.
[[nodiscard]] CacheConfig lru_config(std::size_t ule_ways) {
  CacheConfig config;
  config.org.size_bytes = kWays * kSets * kLineBytes;
  config.org.ways = kWays;
  config.org.line_bytes = kLineBytes;
  config.ways.resize(kWays);
  for (std::size_t w = 0; w < kWays; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 2.0};
    if (w >= kWays - ule_ways) {
      config.ways[w].ule_way = true;
      config.ways[w].cell = {tech::CellKind::k10T, 2.0};
    }
  }
  return config;
}

/// Address of the k-th distinct line that maps to `set`.
[[nodiscard]] std::uint64_t line(std::size_t set, std::uint64_t k) {
  return (k * kSets + set) * kLineBytes;
}

class Lru : public ::testing::Test {
 protected:
  explicit Lru(std::size_t ule_ways = 1)
      : rng_(1),
        terminal_(memory_, kPaperMemoryLatencyCycles),
        cache_(lru_config(ule_ways), terminal_, rng_) {}

  /// Loads `addr`; returns the way it hit or was filled into.
  std::size_t load(std::uint64_t addr) {
    return cache_.access(addr, AccessType::kLoad).way;
  }
  [[nodiscard]] bool hits(std::uint64_t addr) {
    return cache_.access(addr, AccessType::kLoad).hit;
  }

  MainMemory memory_;
  Rng rng_;
  MainMemoryLevel terminal_;
  Cache cache_;
};

TEST_F(Lru, ColdFillsTakeInvalidWaysInOrderThenEvictTheOldest) {
  for (std::uint64_t k = 0; k < kWays; ++k) {
    EXPECT_EQ(load(line(0, k)), k);
  }
  EXPECT_EQ(load(line(0, 4)), 0u);  // line 0 was filled first
  EXPECT_EQ(load(line(0, 5)), 1u);
  EXPECT_FALSE(hits(line(0, 0)));
}

TEST_F(Lru, HitPromotes) {
  for (std::uint64_t k = 0; k < kWays; ++k) {
    (void)load(line(0, k));
  }
  EXPECT_TRUE(hits(line(0, 0)));  // line 0 becomes the most recent
  EXPECT_EQ(load(line(0, 4)), 1u);
  EXPECT_TRUE(hits(line(0, 0)));
  EXPECT_FALSE(hits(line(0, 1)));
}

TEST_F(Lru, SetsAreIndependent) {
  for (std::uint64_t k = 0; k < kWays; ++k) {
    (void)load(line(0, k));
    (void)load(line(1, k));
  }
  EXPECT_TRUE(hits(line(1, 0)));
  EXPECT_TRUE(hits(line(0, 1)));
  // Oldest first, set 0's ways are now 0, 2, 3, 1 and set 1's are
  // 1, 2, 3, 0: each miss evicts its own set's oldest line.
  EXPECT_EQ(load(line(0, 4)), 0u);
  EXPECT_EQ(load(line(1, 4)), 1u);
}

class LruTwoUleWays : public Lru {
 protected:
  LruTwoUleWays() : Lru(2) {}
};

TEST_F(LruTwoUleWays, GatedHpWaysAreNeverVictimsAtUle) {
  for (std::uint64_t k = 0; k < kWays; ++k) {
    (void)load(line(0, k));
  }
  EXPECT_TRUE(hits(line(0, 2)));
  cache_.set_mode(power::Mode::kUle);
  // HP ways 0 and 1 hold the oldest stamps but are gated off; the ULE
  // ways keep lines 2 and 3, and line 3 is the older of the two.
  EXPECT_EQ(load(line(0, 4)), 3u);
  EXPECT_EQ(load(line(0, 5)), 2u);
  EXPECT_EQ(load(line(0, 6)), 3u);
  EXPECT_FALSE(cache_.line_valid(0, 0));
  EXPECT_FALSE(cache_.line_valid(1, 0));
}

TEST(LruNoUleWay, UleAccessThrows) {
  MainMemory memory;
  Rng rng(1);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(lru_config(0), terminal, rng);
  cache.set_mode(power::Mode::kUle);
  EXPECT_THROW((void)cache.access(line(0, 0), AccessType::kLoad),
               InvariantError);
}

}  // namespace
}  // namespace hvc::cache
