// Tests for the extension seams: wide (line-granularity) Hsiao codes,
// scrubbing at HP mode in scenario B, scenario-B duty cycles, and
// array-model monotonicity sweeps.
#include <gtest/gtest.h>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/edc/checker.hpp"
#include "hvc/edc/hsiao.hpp"
#include "hvc/power/array.hpp"
#include "hvc/sim/duty_cycle.hpp"

namespace hvc {
namespace {

// --- wide Hsiao codes (line granularity) ---

class WideHsiao : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WideHsiao, SingleErrorsCorrected) {
  const edc::HsiaoSecded codec(GetParam());
  Rng rng(31);
  const auto report = edc::check_all_single_errors(codec, rng, 2);
  EXPECT_EQ(report.correct_decodes, report.trials);
  EXPECT_TRUE(report.perfect());
}

TEST_P(WideHsiao, RandomDoubleErrorsDetected) {
  const edc::HsiaoSecded codec(GetParam());
  Rng rng(32);
  const auto report = edc::check_random_errors(codec, rng, 2, 2000);
  EXPECT_EQ(report.detected, report.trials);
}

INSTANTIATE_TEST_SUITE_P(LineWidths, WideHsiao,
                         ::testing::Values(64, 128, 256));

TEST(WideHsiaoCheckBits, GrowLogarithmically) {
  EXPECT_EQ(edc::HsiaoSecded::min_check_bits(64), 8u);
  EXPECT_EQ(edc::HsiaoSecded::min_check_bits(128), 9u);
  EXPECT_EQ(edc::HsiaoSecded::min_check_bits(256), 10u);
}

// --- scrub at HP mode (scenario B keeps SECDED active everywhere) ---

TEST(ScrubAtHp, ScenarioBScrubsAllWays) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 8; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    config.ways[w].hp_protection = edc::Protection::kSecded;
    config.ways[w].ule_protection = edc::Protection::kSecded;
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_protection = edc::Protection::kDected;
  cache::MainMemory memory;
  Rng rng(33);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(config, terminal, rng);

  for (std::uint64_t a = 0; a < 8192; a += 4) {
    memory.write_word(a, static_cast<std::uint32_t>(a ^ 0x5A5A));
  }
  for (std::uint64_t a = 0; a < 8192; a += 4) {
    (void)cache.access(a, cache::AccessType::kLoad);
  }
  const auto report = cache.scrub();
  // All 256 lines (8 ways x 32 sets) are valid and coded at HP.
  EXPECT_EQ(report.lines_scrubbed, 256u);
  EXPECT_EQ(report.uncorrectable, 0u);

  // Flip a bit in an HP way line and scrub it away.
  cache.inject_bit_flip(0, 0, 3);
  const auto second = cache.scrub();
  EXPECT_EQ(second.bits_corrected, 1u);
}

// --- duty cycle in scenario B ---

TEST(DutyCycleScenarioB, ProposedStillWins) {
  sim::DutyCycleConfig base_cfg;
  base_cfg.design = {yield::Scenario::kB, false};
  base_cfg.ule_phases = {{"adpcm_d", 1, 1}};
  base_cfg.hp_phase = {"epic_d", 2, 1};
  base_cfg.cycles = 1;
  sim::DutyCycleConfig prop_cfg = base_cfg;
  prop_cfg.design.proposed = true;

  const auto base = sim::run_duty_cycle(base_cfg);
  const auto prop = sim::run_duty_cycle(prop_cfg);
  EXPECT_LT(prop.total_energy_j(), base.total_energy_j());
  EXPECT_EQ(prop.edc_uncorrectable, 0u);
}

// --- array model monotonicity sweeps ---

class ArrayRows : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArrayRows, EnergyAndAreaMonotonicInRows) {
  const std::size_t rows = GetParam();
  const tech::CellDesign cell{tech::CellKind::k8T, 2.0};
  const power::ArrayModel smaller({rows, 128, 32}, cell, 1.0);
  const power::ArrayModel larger({rows * 2, 128, 32}, cell, 1.0);
  EXPECT_GT(larger.read_energy(), smaller.read_energy());
  EXPECT_GT(larger.leakage_power(), smaller.leakage_power());
  EXPECT_GT(larger.area_um2(), smaller.area_um2());
  EXPECT_GE(larger.access_delay(), smaller.access_delay());
}

INSTANTIATE_TEST_SUITE_P(Rows, ArrayRows, ::testing::Values(8, 16, 32, 64));

class ArrayVcc : public ::testing::TestWithParam<double> {};

TEST_P(ArrayVcc, LeakageAndEnergyScaleWithVcc) {
  const double vcc = GetParam();
  const tech::CellDesign cell{tech::CellKind::k10T, 3.5};
  const power::ArrayModel at_vcc({32, 256, 32}, cell, vcc);
  const power::ArrayModel at_nominal({32, 256, 32}, cell, 1.0);
  if (vcc < 1.0) {
    EXPECT_LT(at_vcc.write_energy(), at_nominal.write_energy());
    EXPECT_LT(at_vcc.leakage_power(), at_nominal.leakage_power());
    EXPECT_GT(at_vcc.access_delay(), at_nominal.access_delay());
  }
}

INSTANTIATE_TEST_SUITE_P(Voltages, ArrayVcc,
                         ::testing::Values(0.30, 0.35, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace hvc
