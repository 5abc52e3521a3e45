// Hybrid-mode tests: way gating, HP<->ULE transitions, re-encoding of
// retained lines, per-mode EDC latency.
#include <gtest/gtest.h>

#include "hvc/cache/cache.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {
namespace {

/// Paper configuration: 8KB 8-way, 7x 6T + 1x 8T ULE way, scenario A.
[[nodiscard]] CacheConfig paper_config(bool proposed = true) {
  CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
  }
  config.ways[7].ule_way = true;
  if (proposed) {
    config.ways[7].cell = {tech::CellKind::k8T, 2.8};
    config.ways[7].ule_protection = edc::Protection::kSecded;
  } else {
    config.ways[7].cell = {tech::CellKind::k10T, 3.5};
  }
  return config;
}

TEST(CacheModes, StartsInHp) {
  MainMemory memory;
  Rng rng(1);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  EXPECT_EQ(cache.mode(), power::Mode::kHp);
  // No EDC at HP in scenario A: base hit latency.
  EXPECT_EQ(cache.hit_latency(), cache.config().hit_latency_cycles);
}

TEST(CacheModes, UleAddsEdcCycle) {
  MainMemory memory;
  Rng rng(2);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  EXPECT_EQ(cache.hit_latency(), cache.config().hit_latency_cycles +
                                     cache.config().edc_latency_cycles);
}

TEST(CacheModes, BaselineHasNoEdcCycleAtUle) {
  MainMemory memory;
  Rng rng(3);
  const CacheConfig config = paper_config(false);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  EXPECT_EQ(cache.hit_latency(), cache.config().hit_latency_cycles);
}

TEST(CacheModes, HpWaysDrainedOnUleEntry) {
  MainMemory memory;
  Rng rng(4);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  // Dirty a line that lands in an HP way (fill all 8 ways of set 0).
  const std::uint64_t stride = 32 * 32;  // sets * line_bytes
  for (int i = 0; i < 8; ++i) {
    (void)cache.access(static_cast<std::uint64_t>(i) * stride,
                       AccessType::kStore, static_cast<std::uint32_t>(i + 1));
  }
  cache.set_mode(power::Mode::kUle);
  EXPECT_GE(cache.stats().mode_switch_writebacks, 7u);
  // The seven HP-way lines reached memory; the line that landed in the
  // retained ULE way is still dirty in cache, so flush before checking.
  cache.flush();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(memory.read_word(static_cast<std::uint64_t>(i) * stride),
              static_cast<std::uint32_t>(i + 1));
  }
}

TEST(CacheModes, UleWayContentSurvivesSwitch) {
  MainMemory memory;
  Rng rng(5);
  CacheConfig config = paper_config();
  config.way_hard_pf.assign(8, 0.0);  // fault-free for this test
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);

  // Fill set 0 so the last fill lands in the ULE way... simpler: store to
  // one address, then evict-proof it by accessing only at ULE.
  memory.write_word(0x40, 4242);
  cache.set_mode(power::Mode::kUle);  // only way 7 active
  const auto miss = cache.access(0x40, AccessType::kLoad);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.data, 4242u);
  EXPECT_EQ(miss.way, 7u);

  // Back to HP and again to ULE: the re-encode scrub must preserve data.
  cache.set_mode(power::Mode::kHp);
  cache.set_mode(power::Mode::kUle);
  const auto hit = cache.access(0x40, AccessType::kLoad);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.data, 4242u);
}

TEST(CacheModes, DirtyUleLineSurvivesRoundTrip) {
  MainMemory memory;
  Rng rng(6);
  CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  (void)cache.access(0x80, AccessType::kStore, 777);
  cache.set_mode(power::Mode::kHp);
  const auto result = cache.access(0x80, AccessType::kLoad);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(result.data, 777u);
  cache.flush();
  EXPECT_EQ(memory.read_word(0x80), 777u);
}

TEST(CacheModes, OnlyUleWayFilledAtUle) {
  MainMemory memory;
  Rng rng(7);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  for (std::uint64_t a = 0; a < 4096; a += 32) {
    const auto result = cache.access(a, AccessType::kLoad);
    EXPECT_EQ(result.way, 7u);
  }
  // Capacity at ULE = 1 way = 1KB = 32 lines: everything beyond conflicts.
  EXPECT_EQ(cache.stats().misses, 128u);
}

TEST(CacheModes, UleCapacityIsOneWay) {
  MainMemory memory;
  Rng rng(8);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  // Touch exactly 1KB: second pass must fully hit.
  for (std::uint64_t a = 0; a < 1024; a += 32) {
    (void)cache.access(a, AccessType::kLoad);
  }
  cache.clear_stats();
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    (void)cache.access(a, AccessType::kLoad);
  }
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CacheModes, ModeSwitchIsIdempotent) {
  MainMemory memory;
  Rng rng(9);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  const auto stats_before = cache.stats().mode_switch_writebacks;
  cache.set_mode(power::Mode::kUle);
  EXPECT_EQ(cache.stats().mode_switch_writebacks, stats_before);
}

TEST(CacheModes, LeakageDropsAtUle) {
  MainMemory memory;
  Rng rng(10);
  const CacheConfig config = paper_config();
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  const double hp_leak = cache.leakage_power();
  cache.set_mode(power::Mode::kUle);
  EXPECT_LT(cache.leakage_power(), hp_leak / 5.0);
}

TEST(CacheModes, ScenarioBKeepsSecdedLatencyAtHp) {
  MainMemory memory;
  Rng rng(11);
  CacheConfig config = paper_config();
  for (auto& way : config.ways) {
    way.hp_protection = edc::Protection::kSecded;
  }
  config.ways[7].ule_protection = edc::Protection::kDected;
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  EXPECT_EQ(cache.hit_latency(), config.hit_latency_cycles +
                                     config.edc_latency_cycles);
}

}  // namespace
}  // namespace hvc::cache
