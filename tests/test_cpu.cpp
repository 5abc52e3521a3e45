// Core timing/energy model tests.
#include <gtest/gtest.h>

#include "hvc/cache/cache.hpp"
#include "hvc/cpu/core.hpp"
#include "hvc/trace/trace.hpp"

namespace hvc::cpu {
namespace {

[[nodiscard]] cache::CacheConfig cache_config(bool edc_at_ule) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  if (edc_at_ule) {
    config.ways[7].ule_protection = edc::Protection::kSecded;
  } else {
    config.ways[7].cell = {tech::CellKind::k10T, 3.5};
  }
  return config;
}

struct TestSystem {
  explicit TestSystem(bool edc_at_ule, power::Mode mode = power::Mode::kHp)
      : rng(1),
        terminal(memory, cache::kPaperMemoryLatencyCycles),
        il1(cache_config(edc_at_ule), terminal, rng),
        dl1(cache_config(edc_at_ule), terminal, rng) {
    il1.set_mode(mode);
    dl1.set_mode(mode);
    const power::OperatingPoint op = mode == power::Mode::kHp
                                         ? power::OperatingPoint{mode, 1.0, 1e9}
                                         : power::OperatingPoint{mode, 0.35, 5e6};
    core = std::make_unique<Core>(CoreParams{}, il1, dl1, op);
  }
  /// Replays an in-memory trace on the core.
  [[nodiscard]] RunResult run(const trace::Tracer& tracer) {
    trace::MemoryTraceSource source(tracer);
    return core->run(source);
  }
  cache::MainMemory memory;
  Rng rng;
  cache::MainMemoryLevel terminal;
  cache::Cache il1;
  cache::Cache dl1;
  std::unique_ptr<Core> core;
};

[[nodiscard]] trace::Tracer tight_loop(std::size_t iterations) {
  trace::Tracer t;
  trace::Array<std::int32_t> data(t, 64);
  // ~20-instruction loop body: representative of the codec kernels.
  const trace::Block loop = t.block(20);
  for (std::size_t i = 0; i < iterations; ++i) {
    t.exec(loop, i + 1 < iterations);
    (void)data.get(i % 64);
    data.set((i + 1) % 64, 0);
  }
  return t;
}

TEST(Core, InstructionCountMatchesTrace) {
  TestSystem sys(true);
  const auto t = tight_loop(500);
  const RunResult result = sys.run(t);
  EXPECT_EQ(result.instructions, t.stats().instructions);
  EXPECT_EQ(result.il1.ifetches, t.stats().instructions);
  EXPECT_EQ(result.dl1.loads + result.dl1.stores, 1000u);
}

TEST(Core, CpiNearOneForCacheResidentLoop) {
  TestSystem sys(true);
  const RunResult result = sys.run(tight_loop(5000));
  EXPECT_GT(result.cpi(), 0.99);
  EXPECT_LT(result.cpi(), 1.3);
}

TEST(Core, MissesStall) {
  TestSystem sys(true);
  // Streaming loads over 64KB: every 8th load misses (32B lines).
  trace::Tracer t;
  trace::Array<std::int32_t> data(t, 16384);
  const trace::Block loop = t.block(4);
  for (std::size_t i = 0; i < 16384; ++i) {
    t.exec(loop, true);
    (void)data.get(i);
  }
  const RunResult result = sys.run(t);
  EXPECT_GT(result.dl1.misses, 2000u);
  // CPI must reflect 20-cycle memory stalls on ~1/8 of loads.
  EXPECT_GT(result.cpi(), 1.4);
}

TEST(Core, EdcCycleCostsAboutThreePercent) {
  // Paper IV-B2: ~3% execution time increase at ULE mode from the
  // 1-cycle EDC latency.
  TestSystem base(false, power::Mode::kUle);
  TestSystem prop(true, power::Mode::kUle);
  const auto t = tight_loop(20000);
  const RunResult r_base = base.run(t);
  const RunResult r_prop = prop.run(t);
  const double slowdown = static_cast<double>(r_prop.cycles) /
                          static_cast<double>(r_base.cycles);
  EXPECT_GT(slowdown, 1.005);
  EXPECT_LT(slowdown, 1.08);
}

TEST(Core, EnergyBreakdownComplete) {
  TestSystem sys(true);
  const RunResult result = sys.run(tight_loop(1000));
  EXPECT_GT(result.energy.get("l1.dynamic"), 0.0);
  EXPECT_GT(result.energy.get("l1.leakage"), 0.0);
  EXPECT_GT(result.energy.get("core.dynamic"), 0.0);
  EXPECT_GT(result.energy.get("core.leakage"), 0.0);
  EXPECT_GT(result.energy.get("arrays.dynamic"), 0.0);
  EXPECT_GT(result.energy.get("arrays.leakage"), 0.0);
  EXPECT_GT(result.epi(), 0.0);
  EXPECT_NEAR(result.energy.total(),
              result.epi() * static_cast<double>(result.instructions),
              result.energy.total() * 1e-9);
}

TEST(Core, CachesDominateChipEnergy) {
  // Paper I: "caches become the main energy consumer on the chip" for
  // these very simple processors.
  TestSystem sys(true);
  const RunResult result = sys.run(tight_loop(2000));
  const double l1 = result.energy.get("l1.dynamic") +
                    result.energy.get("l1.leakage") +
                    result.energy.get("l1.edc");
  EXPECT_GT(l1 / result.energy.total(), 0.5);
}

TEST(Core, UleModeEnergyFarBelowHp) {
  TestSystem hp(true, power::Mode::kHp);
  TestSystem ule(true, power::Mode::kUle);
  const auto t = tight_loop(2000);
  const double epi_hp = hp.run(t).epi();
  const double epi_ule = ule.run(t).epi();
  // ULE mode exists to save energy per instruction.
  EXPECT_LT(epi_ule, epi_hp);
}

TEST(Core, SecondsFollowFrequency) {
  TestSystem hp(true, power::Mode::kHp);
  TestSystem ule(true, power::Mode::kUle);
  const auto t = tight_loop(1000);
  const RunResult r_hp = hp.run(t);
  const RunResult r_ule = ule.run(t);
  // Same work at 1 GHz vs 5 MHz: ~200x longer wall clock at ULE.
  EXPECT_GT(r_ule.seconds / r_hp.seconds, 100.0);
}

TEST(Core, LeakageScalesWithRuntime) {
  TestSystem sys(true, power::Mode::kUle);
  const RunResult small = sys.run(tight_loop(1000));
  const RunResult large = sys.run(tight_loop(4000));
  EXPECT_NEAR(large.energy.get("l1.leakage") / small.energy.get("l1.leakage"),
              4.0, 0.5);
}

TEST(Core, StatsResetBetweenRuns) {
  TestSystem sys(true);
  (void)sys.run(tight_loop(100));
  const RunResult second = sys.run(tight_loop(100));
  EXPECT_EQ(second.il1.ifetches, tight_loop(100).stats().instructions);
}

}  // namespace
}  // namespace hvc::cpu
