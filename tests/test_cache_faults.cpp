// Fault injection tests: hard fault maps, EDC correction in the live
// datapath, soft errors, and the reliability contrast between the
// protected proposal and an unprotected small-cell design.
#include <gtest/gtest.h>

#include "hvc/cache/cache.hpp"
#include "hvc/cache/fault.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {
namespace {

TEST(FaultMap, DensityMatchesPf) {
  Rng rng(1);
  const double pf = 0.01;
  const std::size_t bits = 200000;
  const FaultMap map(bits, pf, rng);
  const double density =
      static_cast<double>(map.fault_count()) / static_cast<double>(bits);
  EXPECT_NEAR(density, pf, 0.002);
}

TEST(FaultMap, ZeroPfIsClean) {
  Rng rng(2);
  const FaultMap map(10000, 0.0, rng);
  EXPECT_EQ(map.fault_count(), 0u);
}

TEST(FaultMap, ApplyForcesStuckValues) {
  Rng rng(3);
  FaultMap map(64, 0.5, rng);
  ASSERT_GT(map.fault_count(), 0u);
  BitVec word(64);
  map.apply(word, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    if (map.is_stuck(i)) {
      EXPECT_EQ(word.get(i), map.stuck_value(i));
    } else {
      EXPECT_FALSE(word.get(i));
    }
  }
}

TEST(FaultMap, ApplyRangeChecked) {
  Rng rng(4);
  const FaultMap map(32, 0.1, rng);
  BitVec word(16);
  EXPECT_THROW(map.apply(word, 20), PreconditionError);
}

TEST(SoftErrors, PoissonRate) {
  Rng rng(5);
  SoftErrorProcess process(1000000, 1e-3);
  std::size_t total = 0;
  for (int i = 0; i < 100; ++i) {
    total += process.advance(0.01, rng).size();
  }
  // Expected: 1e6 bits * 1e-3 err/s/bit * 1s total = 1000.
  EXPECT_NEAR(static_cast<double>(total), 1000.0, 150.0);
}

TEST(SoftErrors, ZeroRateNoFlips) {
  Rng rng(6);
  SoftErrorProcess process(1000, 0.0);
  EXPECT_TRUE(process.advance(100.0, rng).empty());
}

/// 8KB 7+1 cache with a heavily faulty ULE way (exaggerated Pf so faults
/// are plentiful), SECDED-protected.
[[nodiscard]] CacheConfig faulty_config(double pf,
                                        edc::Protection protection) {
  CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_protection = protection;
  config.way_hard_pf.assign(8, 0.0);
  config.way_hard_pf[7] = pf;
  return config;
}

TEST(CacheFaults, SecdedCorrectsHardFaultsEndToEnd) {
  // Pf high enough that several words carry exactly one stuck bit; the
  // SECDED datapath must deliver functionally exact loads anyway.
  MainMemory memory;
  Rng rng(7);
  const CacheConfig config = faulty_config(3e-3, edc::Protection::kSecded);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);

  for (std::uint64_t a = 0; a < 1024; a += 4) {
    memory.write_word(a, static_cast<std::uint32_t>(a * 2654435761ULL));
  }
  std::size_t wrong = 0;
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    const auto result = cache.access(a, AccessType::kLoad);
    if (result.data != static_cast<std::uint32_t>(a * 2654435761ULL)) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0u);
  // With 313 codewords (data+tags) at Pf=3e-3 over ~39 bits each, the
  // expected stuck-bit count is ~37: corrections must actually happen.
  EXPECT_GT(cache.stats().edc_corrections, 5u);
}

TEST(CacheFaults, UnprotectedSmallCellsCorruptData) {
  // The paper's counterfactual: drop-in 8T without EDC at ULE -> data
  // corruption (which is why faulty entries would need disabling, killing
  // WCET guarantees).
  MainMemory memory;
  Rng rng(7);  // same seed: same fault map as the protected run
  const CacheConfig config = faulty_config(3e-3, edc::Protection::kNone);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);

  for (std::uint64_t a = 0; a < 1024; a += 4) {
    memory.write_word(a, static_cast<std::uint32_t>(a * 2654435761ULL));
  }
  std::size_t wrong = 0;
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    const auto result = cache.access(a, AccessType::kLoad);
    if (result.data != static_cast<std::uint32_t>(a * 2654435761ULL)) {
      ++wrong;
    }
  }
  EXPECT_GT(wrong, 0u);
}

TEST(CacheFaults, FaultsDormantAtHp) {
  // Hard faults are NST-voltage failures: at HP mode the same cells work.
  MainMemory memory;
  Rng rng(8);
  const CacheConfig config = faulty_config(5e-3, edc::Protection::kNone);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  // HP mode: all ways active, faults never applied.
  for (std::uint64_t a = 0; a < 4096; a += 4) {
    memory.write_word(a, static_cast<std::uint32_t>(a + 7));
  }
  for (std::uint64_t a = 0; a < 4096; a += 4) {
    EXPECT_EQ(cache.access(a, AccessType::kLoad).data,
              static_cast<std::uint32_t>(a + 7));
  }
  EXPECT_EQ(cache.stats().edc_detected, 0u);
}

TEST(CacheFaults, InjectedSoftErrorCorrected) {
  MainMemory memory;
  Rng rng(9);
  const CacheConfig config = faulty_config(0.0, edc::Protection::kSecded);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  memory.write_word(0x100, 1234);
  (void)cache.access(0x100, AccessType::kLoad);

  // Flip one stored bit of the filled line (set of 0x100: line 8 -> set 8).
  cache.inject_bit_flip(7, 8, 3);
  const auto result = cache.access(0x100, AccessType::kLoad);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(result.data, 1234u);
  EXPECT_GE(cache.stats().edc_corrections, 1u);
}

TEST(CacheFaults, DoubleSoftErrorDetectedNotMiscorrected) {
  MainMemory memory;
  Rng rng(10);
  const CacheConfig config = faulty_config(0.0, edc::Protection::kSecded);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  memory.write_word(0x100, 0xFEED);
  (void)cache.access(0x100, AccessType::kLoad);
  cache.inject_bit_flip(7, 8, 0);
  cache.inject_bit_flip(7, 8, 17);
  const auto result = cache.access(0x100, AccessType::kLoad);
  // SECDED flags the double error; the cache falls back to memory, so the
  // returned data is still correct.
  EXPECT_TRUE(result.detected_uncorrectable);
  EXPECT_EQ(result.data, 0xFEEDu);
  EXPECT_GE(cache.stats().edc_detected, 1u);
}

TEST(CacheFaults, DectedCorrectsDoubleError) {
  MainMemory memory;
  Rng rng(11);
  const CacheConfig config = faulty_config(0.0, edc::Protection::kDected);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  memory.write_word(0x100, 0xBEEF);
  (void)cache.access(0x100, AccessType::kLoad);
  cache.inject_bit_flip(7, 8, 0);
  cache.inject_bit_flip(7, 8, 17);
  const auto result = cache.access(0x100, AccessType::kLoad);
  EXPECT_FALSE(result.detected_uncorrectable);
  EXPECT_EQ(result.data, 0xBEEFu);
  EXPECT_GE(result.corrected_bits, 2u);
}

TEST(CacheFaults, SoftErrorProcessIntegration) {
  MainMemory memory;
  Rng rng(12);
  const CacheConfig config = faulty_config(0.0, edc::Protection::kSecded);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  // ~12 expected flips over the way: well within one correction per word
  // for almost every word.
  cache.enable_soft_errors(7, 1e-4);
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    memory.write_word(a, static_cast<std::uint32_t>(a));
  }
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    (void)cache.access(a, AccessType::kLoad);
  }
  cache.advance_time(10.0);
  EXPECT_GT(cache.stats().soft_errors_injected, 0u);
  // Reads remain functionally exact: single flips are corrected, doubles
  // detected and refetched from memory.
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    EXPECT_EQ(cache.access(a, AccessType::kLoad).data,
              static_cast<std::uint32_t>(a));
  }
  EXPECT_GT(cache.stats().edc_corrections, 0u);
}

TEST(CacheFaults, DeterministicFaultMapPerSeed) {
  MainMemory m1, m2;
  Rng r1(13), r2(13);
  const CacheConfig config = faulty_config(1e-3, edc::Protection::kSecded);
  MainMemoryLevel t1(m1, kPaperMemoryLatencyCycles);
  MainMemoryLevel t2(m2, kPaperMemoryLatencyCycles);
  Cache c1(config, t1, r1);
  Cache c2(config, t2, r2);
  c1.set_mode(power::Mode::kUle);
  c2.set_mode(power::Mode::kUle);
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    (void)c1.access(a, AccessType::kLoad);
    (void)c2.access(a, AccessType::kLoad);
  }
  EXPECT_EQ(c1.stats().edc_corrections, c2.stats().edc_corrections);
}

}  // namespace
}  // namespace hvc::cache
