// Functional cache tests: hits/misses, write policies, replacement,
// writebacks, functional exactness of loads.
#include <gtest/gtest.h>

#include <array>

#include "hvc/cache/cache.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {
namespace {

[[nodiscard]] CacheConfig small_config(
    WritePolicy policy = WritePolicy::kWriteBackAllocate) {
  CacheConfig config;
  config.org.size_bytes = 1024;
  config.org.ways = 4;
  config.org.line_bytes = 32;
  config.ways.resize(4);
  for (std::size_t w = 0; w < 4; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 2.0};
  }
  config.ways[3].ule_way = true;
  config.ways[3].cell = {tech::CellKind::k8T, 2.8};
  config.ways[3].ule_protection = edc::Protection::kSecded;
  config.write_policy = policy;
  return config;
}

class CacheFunctional : public ::testing::Test {
 protected:
  CacheFunctional()
      : rng_(1),
        terminal_(memory_, kPaperMemoryLatencyCycles),
        cache_(small_config(), terminal_, rng_) {}
  MainMemory memory_;
  Rng rng_;
  MainMemoryLevel terminal_;
  Cache cache_;
};

TEST_F(CacheFunctional, ColdMissThenHit) {
  memory_.write_word(0x100, 77);
  const auto miss = cache_.access(0x100, AccessType::kLoad);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.data, 77u);
  EXPECT_EQ(miss.latency_cycles,
            cache_.hit_latency() + kPaperMemoryLatencyCycles);
  const auto hit = cache_.access(0x100, AccessType::kLoad);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.data, 77u);
  EXPECT_EQ(hit.latency_cycles, cache_.hit_latency());
}

TEST_F(CacheFunctional, SpatialLocalityWithinLine) {
  for (std::uint64_t offset = 0; offset < 32; offset += 4) {
    memory_.write_word(0x200 + offset, static_cast<std::uint32_t>(offset));
  }
  (void)cache_.access(0x200, AccessType::kLoad);
  for (std::uint64_t offset = 4; offset < 32; offset += 4) {
    const auto result = cache_.access(0x200 + offset, AccessType::kLoad);
    EXPECT_TRUE(result.hit) << "offset " << offset;
    EXPECT_EQ(result.data, offset);
  }
  EXPECT_EQ(cache_.stats().misses, 1u);
  EXPECT_EQ(cache_.stats().hits, 7u);
}

TEST_F(CacheFunctional, StoreHitReadBack) {
  (void)cache_.access(0x300, AccessType::kLoad);
  (void)cache_.access(0x300, AccessType::kStore, 0xABCD);
  const auto result = cache_.access(0x300, AccessType::kLoad);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(result.data, 0xABCDu);
  // Write-back: memory still stale.
  EXPECT_EQ(memory_.read_word(0x300), 0u);
  cache_.flush();
  EXPECT_EQ(memory_.read_word(0x300), 0xABCDu);
}

TEST_F(CacheFunctional, StoreMissAllocates) {
  const auto result = cache_.access(0x400, AccessType::kStore, 99);
  EXPECT_FALSE(result.hit);
  const auto hit = cache_.access(0x400, AccessType::kLoad);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.data, 99u);
  EXPECT_EQ(cache_.stats().fills, 1u);
}

TEST_F(CacheFunctional, ConflictEvictionWritesBackDirty) {
  // 1KB 4-way, 32B lines -> 8 sets. Five lines mapping to set 0.
  const std::uint64_t stride = 8 * 32;
  (void)cache_.access(0 * stride, AccessType::kStore, 11);
  for (int i = 1; i < 5; ++i) {
    (void)cache_.access(static_cast<std::uint64_t>(i) * stride,
                        AccessType::kLoad);
  }
  // The dirty line at address 0 was LRU and must be written back.
  EXPECT_GE(cache_.stats().writebacks, 1u);
  EXPECT_EQ(memory_.read_word(0), 11u);
  // Re-access misses (was evicted) but returns the written value.
  const auto result = cache_.access(0, AccessType::kLoad);
  EXPECT_FALSE(result.hit);
  EXPECT_EQ(result.data, 11u);
}

TEST_F(CacheFunctional, LruKeepsHotLine) {
  const std::uint64_t stride = 8 * 32;
  (void)cache_.access(0, AccessType::kLoad);  // hot line
  for (int i = 1; i < 5; ++i) {
    (void)cache_.access(static_cast<std::uint64_t>(i) * stride,
                        AccessType::kLoad);
    (void)cache_.access(0, AccessType::kLoad);  // keep it hot
  }
  const auto result = cache_.access(0, AccessType::kLoad);
  EXPECT_TRUE(result.hit);
}

TEST_F(CacheFunctional, StatsAddUp) {
  for (std::uint64_t a = 0; a < 2048; a += 4) {
    (void)cache_.access(a, AccessType::kLoad);
  }
  const CacheStats& s = cache_.stats();
  EXPECT_EQ(s.accesses, 512u);
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_EQ(s.misses, 64u);  // 2KB / 32B lines, cold
  EXPECT_EQ(s.loads, 512u);
  EXPECT_NEAR(s.hit_rate(), 448.0 / 512.0, 1e-12);
}

TEST_F(CacheFunctional, EnergyAccumulates) {
  EXPECT_EQ(cache_.energy().total(), 0.0);
  (void)cache_.access(0, AccessType::kLoad);
  const double after_miss = cache_.energy().total();
  EXPECT_GT(after_miss, 0.0);
  (void)cache_.access(0, AccessType::kLoad);
  EXPECT_GT(cache_.energy().total(), after_miss);
  cache_.clear_energy();
  EXPECT_EQ(cache_.energy().total(), 0.0);
}

TEST(CacheWriteThrough, StoreUpdatesMemoryImmediately) {
  MainMemory memory;
  Rng rng(2);
  const CacheConfig config = small_config(WritePolicy::kWriteThroughNoAllocate);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  (void)cache.access(0x500, AccessType::kLoad);       // allocate line
  (void)cache.access(0x500, AccessType::kStore, 123);  // hit
  EXPECT_EQ(memory.read_word(0x500), 123u);
  // Store miss: no allocation.
  (void)cache.access(0x900, AccessType::kStore, 55);
  EXPECT_EQ(memory.read_word(0x900), 55u);
  const auto result = cache.access(0x900, AccessType::kLoad);
  EXPECT_FALSE(result.hit);
  EXPECT_EQ(result.data, 55u);
  EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(CacheConfigTest, Validation) {
  MainMemory memory;
  Rng rng(3);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  CacheConfig config = small_config();
  config.ways.pop_back();
  EXPECT_THROW(Cache(config, terminal, rng), PreconditionError);
  CacheConfig config2 = small_config();
  config2.way_hard_pf = {0.0, 0.0};  // wrong length
  EXPECT_THROW(Cache(config2, terminal, rng), PreconditionError);
}

TEST(CacheAliasing, TagDisambiguation) {
  MainMemory memory;
  Rng rng(4);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(small_config(), terminal, rng);
  // Two addresses mapping to the same set with different tags.
  const std::uint64_t a = 0x0000;
  const std::uint64_t b = 0x10000;
  memory.write_word(a, 1);
  memory.write_word(b, 2);
  EXPECT_EQ(cache.access(a, AccessType::kLoad).data, 1u);
  EXPECT_EQ(cache.access(b, AccessType::kLoad).data, 2u);
  EXPECT_EQ(cache.access(a, AccessType::kLoad).data, 1u);
  EXPECT_TRUE(cache.access(b, AccessType::kLoad).hit);
}

TEST(CacheIfetch, CountsSeparately) {
  MainMemory memory;
  Rng rng(5);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(small_config(), terminal, rng);
  (void)cache.access(0x40, AccessType::kIfetch);
  (void)cache.access(0x44, AccessType::kIfetch);
  EXPECT_EQ(cache.stats().ifetches, 2u);
  EXPECT_EQ(cache.stats().loads, 0u);
}

}  // namespace
}  // namespace hvc::cache
