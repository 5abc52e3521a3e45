// Scrubbing tests: the extension feature that clears accumulated
// correctable soft errors before a second strike becomes uncorrectable.
#include <gtest/gtest.h>

#include "hvc/cache/cache.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {
namespace {

[[nodiscard]] CacheConfig scrub_config(edc::Protection protection) {
  CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_protection = protection;
  return config;
}

class ScrubTest : public ::testing::Test {
 protected:
  ScrubTest()
      : rng_(1),
        terminal_(memory_, kPaperMemoryLatencyCycles),
        cache_(scrub_config(edc::Protection::kSecded), terminal_, rng_) {
    cache_.set_mode(power::Mode::kUle);
    // Initialize the whole region first, then warm the cache (a line fill
    // snapshots all eight words of the line).
    for (std::uint64_t a = 0; a < 1024; a += 4) {
      memory_.write_word(a, pattern(a));
    }
    for (std::uint64_t a = 0; a < 1024; a += 4) {
      (void)cache_.access(a, AccessType::kLoad);
    }
  }
  [[nodiscard]] static std::uint32_t pattern(std::uint64_t a) {
    return static_cast<std::uint32_t>(a * 2654435761ULL + 17);
  }
  MainMemory memory_;
  Rng rng_;
  MainMemoryLevel terminal_;
  Cache cache_;
};

TEST_F(ScrubTest, CleanCacheScrubsNothing) {
  const auto report = cache_.scrub();
  EXPECT_EQ(report.lines_scrubbed, 32u);  // all lines of the ULE way
  EXPECT_EQ(report.bits_corrected, 0u);
  EXPECT_EQ(report.uncorrectable, 0u);
}

TEST_F(ScrubTest, SingleFlipCleared) {
  cache_.inject_bit_flip(7, 3, 5);
  const auto report = cache_.scrub();
  EXPECT_EQ(report.bits_corrected, 1u);
  // A second flip in the same word after the scrub is again correctable.
  cache_.inject_bit_flip(7, 3, 9);
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    EXPECT_EQ(cache_.access(a, AccessType::kLoad).data, pattern(a));
  }
}

TEST_F(ScrubTest, WithoutScrubTwoFlipsAreUncorrectable) {
  cache_.inject_bit_flip(7, 3, 5);
  cache_.inject_bit_flip(7, 3, 9);  // same 39-bit word (bits 0..38)
  // Find the address mapping to set 3 (line_addr % 32 == 3), word 0.
  const std::uint64_t addr = 3 * 32;  // line 3, byte offset 0
  const auto result = cache_.access(addr, AccessType::kLoad);
  EXPECT_TRUE(result.detected_uncorrectable);
  // Functional fallback still returns the right data (clean line).
  EXPECT_EQ(result.data, pattern(addr));
}

TEST_F(ScrubTest, UncorrectableCleanLineInvalidated) {
  cache_.inject_bit_flip(7, 3, 5);
  cache_.inject_bit_flip(7, 3, 9);
  const auto report = cache_.scrub();
  EXPECT_EQ(report.uncorrectable, 1u);
  EXPECT_EQ(report.data_loss, 0u);  // line was clean
  EXPECT_FALSE(cache_.line_valid(7, 3));
  // Next access misses and refills: data intact.
  const std::uint64_t addr = 3 * 32;
  const auto result = cache_.access(addr, AccessType::kLoad);
  EXPECT_FALSE(result.hit);
  EXPECT_EQ(result.data, pattern(addr));
}

TEST_F(ScrubTest, DirtyUncorrectableCountsAsDataLoss) {
  const std::uint64_t addr = 5 * 32;
  (void)cache_.access(addr, AccessType::kStore, 0xD1157);
  cache_.inject_bit_flip(7, 5, 2);
  cache_.inject_bit_flip(7, 5, 7);
  const auto report = cache_.scrub();
  EXPECT_EQ(report.data_loss, 1u);
}

TEST_F(ScrubTest, ScrubChargesEnergy) {
  cache_.clear_energy();
  (void)cache_.scrub();
  EXPECT_GT(cache_.energy().get("dynamic"), 0.0);
  EXPECT_GT(cache_.energy().get("edc"), 0.0);
}

TEST_F(ScrubTest, PeriodicScrubSurvivesErrorRain) {
  // Inject a steady soft-error drizzle; scrub between batches. All data
  // must remain readable (corrected or refetched), never silently wrong.
  cache_.enable_soft_errors(7, 5e-5);
  for (int epoch = 0; epoch < 10; ++epoch) {
    cache_.advance_time(5.0);
    (void)cache_.scrub();
  }
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    EXPECT_EQ(cache_.access(a, AccessType::kLoad).data, pattern(a));
  }
}

TEST(ScrubDected, SurvivesDoubleFlipsInPlace) {
  MainMemory memory;
  Rng rng(2);
  const CacheConfig config = scrub_config(edc::Protection::kDected);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  memory.write_word(96, 1111);
  (void)cache.access(96, AccessType::kLoad);
  cache.inject_bit_flip(7, 3, 5);
  cache.inject_bit_flip(7, 3, 9);
  const auto report = cache.scrub();
  EXPECT_EQ(report.bits_corrected, 2u);
  EXPECT_EQ(report.uncorrectable, 0u);
  EXPECT_TRUE(cache.line_valid(7, 3));
}

TEST(ScrubUnprotected, NoCodedWaysNothingToScrub) {
  MainMemory memory;
  Rng rng(3);
  const CacheConfig config = scrub_config(edc::Protection::kNone);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  memory.write_word(0, 5);
  (void)cache.access(0, AccessType::kLoad);
  const auto report = cache.scrub();
  EXPECT_EQ(report.lines_scrubbed, 0u);
}

}  // namespace
}  // namespace hvc::cache
