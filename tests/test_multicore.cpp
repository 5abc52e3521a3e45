// Multi-core simulation layer: the differential pin that one-core runs
// are bit-identical to the single-core model, traffic identities through
// the shared L2, the 2-core HP<->ULE drain, and the single-port arbiter's
// contention properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hvc/cache/arbiter.hpp"
#include "hvc/cache/memory.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/sim/report.hpp"
#include "hvc/sim/system.hpp"

namespace hvc::sim {
namespace {

[[nodiscard]] SystemConfig base_config(yield::Scenario scenario, bool proposed,
                                       power::Mode mode,
                                       std::size_t num_cores = 1,
                                       bool with_l2 = false) {
  SystemConfig config;
  config.design.scenario = scenario;
  config.design.proposed = proposed;
  config.mode = mode;
  config.num_cores = num_cores;
  if (with_l2) {
    config.hierarchy.l2 = L2Spec{};
  }
  return config;
}

/// Bit-identical comparison of two run results: every timing field and
/// every energy category must match exactly (EXPECT_EQ on doubles — the
/// one-core multicore path must take the same arithmetic path, not just
/// land close).
void expect_bit_identical(const cpu::RunResult& a, const cpu::RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  const auto& items_a = a.energy.items();
  const auto& items_b = b.energy.items();
  ASSERT_EQ(items_a.size(), items_b.size());
  for (const auto& [key, value] : items_a) {
    EXPECT_EQ(value, b.energy.get(key)) << "category " << key;
  }
  EXPECT_EQ(a.il1.accesses, b.il1.accesses);
  EXPECT_EQ(a.il1.hits, b.il1.hits);
  EXPECT_EQ(a.dl1.accesses, b.dl1.accesses);
  EXPECT_EQ(a.dl1.hits, b.dl1.hits);
  EXPECT_EQ(a.il1.writebacks, b.il1.writebacks);
  EXPECT_EQ(a.dl1.writebacks, b.dl1.writebacks);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].name, b.levels[i].name);
    EXPECT_EQ(a.levels[i].accesses, b.levels[i].accesses);
    EXPECT_EQ(a.levels[i].hits, b.levels[i].hits);
    EXPECT_EQ(a.levels[i].dynamic_energy_j, b.levels[i].dynamic_energy_j);
  }
}

// ---------------------------------------------------------------------
// Differential pin: num_cores = 1 == the existing single-core model on
// the Fig. 3 / Fig. 4 regression workloads.
// ---------------------------------------------------------------------

TEST(MulticoreDifferential, OneCoreMixBitIdenticalToRunOneFig3) {
  // Fig. 3 shape: HP mode over a BigBench workload, both designs.
  for (const bool proposed : {false, true}) {
    const SystemConfig config =
        base_config(yield::Scenario::kA, proposed, power::Mode::kHp);
    const cpu::RunResult reference = run_one(config, "gsm_c");

    System system(config, cell_plan_for(config.design.scenario));
    const MulticoreResult mix = system.run_mix({"gsm_c"});
    ASSERT_EQ(mix.per_core.size(), 1u);
    expect_bit_identical(mix.per_core[0], reference);
    expect_bit_identical(mix.aggregate, reference);
  }
}

TEST(MulticoreDifferential, OneCoreMixBitIdenticalToRunOneFig4) {
  // Fig. 4 shape: ULE mode over SmallBench, both scenarios.
  for (const auto scenario : {yield::Scenario::kA, yield::Scenario::kB}) {
    const SystemConfig config =
        base_config(scenario, true, power::Mode::kUle);
    const cpu::RunResult reference = run_one(config, "adpcm_c");

    System system(config, cell_plan_for(scenario));
    const MulticoreResult mix = system.run_mix({"adpcm_c"});
    expect_bit_identical(mix.aggregate, reference);
  }
}

TEST(MulticoreDifferential, OneCoreMixBitIdenticalWithSharedL2) {
  // The hierarchy shape must pin too: one core in front of an L2 builds
  // the exact current topology (no arbiter inserted).
  SystemConfig config =
      base_config(yield::Scenario::kA, true, power::Mode::kHp, 1, true);
  const cpu::RunResult reference = run_one(config, "mpeg2_c");

  System system(config, cell_plan_for(config.design.scenario));
  EXPECT_EQ(system.arbiter(), nullptr);
  const MulticoreResult mix = system.run_mix({"mpeg2_c"});
  expect_bit_identical(mix.aggregate, reference);
  ASSERT_NE(mix.aggregate.level("L2"), nullptr);
  EXPECT_EQ(mix.aggregate.level("L2")->contention_cycles, 0u);
}

// ---------------------------------------------------------------------
// Multi-core traffic identity and aggregate reporting.
// ---------------------------------------------------------------------

TEST(Multicore, L2TrafficIsSumOfPerCoreFillsAndWritebacks) {
  SystemConfig config =
      base_config(yield::Scenario::kA, false, power::Mode::kHp, 2, true);
  System system(config, cell_plan_for(config.design.scenario));
  const MulticoreResult mix = system.run_mix({"gsm_c", "g721_c"});

  ASSERT_EQ(mix.per_core.size(), 2u);
  std::uint64_t l1_fills = 0;
  std::uint64_t l1_writebacks = 0;
  for (const cpu::RunResult& core : mix.per_core) {
    l1_fills += core.il1.fills + core.dl1.fills;
    l1_writebacks += core.il1.writebacks + core.dl1.writebacks;
  }
  const cache::LevelStats* l2 = mix.aggregate.level("L2");
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->accesses, l1_fills + l1_writebacks);

  // Aggregate timing: sum of instructions, wall-clock of the slowest core.
  std::uint64_t instructions = 0;
  std::uint64_t max_cycles = 0;
  for (const cpu::RunResult& core : mix.per_core) {
    instructions += core.instructions;
    max_cycles = std::max(max_cycles, core.cycles);
  }
  EXPECT_EQ(mix.aggregate.instructions, instructions);
  EXPECT_EQ(mix.aggregate.cycles, max_cycles);

  // Per-core L1 snapshots are reported under C<i>.* names.
  EXPECT_NE(mix.aggregate.level("C0.IL1"), nullptr);
  EXPECT_NE(mix.aggregate.level("C1.DL1"), nullptr);
  EXPECT_NE(mix.aggregate.level("MEM"), nullptr);
}

TEST(Multicore, SharedL2SeesContentionAndChargesArbitrationEnergy) {
  SystemConfig config =
      base_config(yield::Scenario::kA, false, power::Mode::kHp, 4, true);
  System system(config, cell_plan_for(config.design.scenario));
  ASSERT_NE(system.arbiter(), nullptr);
  const MulticoreResult mix =
      system.run_mix({"gsm_c", "g721_c", "mpeg2_c", "gsm_d"});

  const cache::LevelStats* l2 = mix.aggregate.level("L2");
  ASSERT_NE(l2, nullptr);
  EXPECT_GT(l2->contention_cycles, 0u);
  EXPECT_GT(l2->contended_requests, 0u);
  EXPECT_GT(mix.aggregate.energy.get("contention.l2"), 0.0);
  const EpiBreakdown epi = epi_breakdown(mix.aggregate);
  EXPECT_GT(epi.contention, 0.0);
  // The breakdown still sums to the aggregate EPI with the new category.
  EXPECT_NEAR(epi.total(), mix.aggregate.epi(),
              1e-12 * std::max(1.0, mix.aggregate.epi()));
}

TEST(Multicore, UnbalancedMixChargesIdleCoreLeakageToTheChipTotal) {
  // gsm_c outlives adpcm_c by a wide margin; the early core's static
  // power over its idle tail belongs in the chip aggregate (no per-core
  // power gating is modelled), so aggregate leakage exceeds the sum of
  // per-core active-window leakage.
  SystemConfig config =
      base_config(yield::Scenario::kA, false, power::Mode::kHp, 2, true);
  System system(config, cell_plan_for(config.design.scenario));
  const MulticoreResult mix = system.run_mix({"gsm_c", "adpcm_c"});

  ASSERT_GT(mix.per_core[0].seconds, mix.per_core[1].seconds);
  double per_core_l1_leak = 0.0;
  for (const cpu::RunResult& core : mix.per_core) {
    per_core_l1_leak += core.energy.get("l1.leakage");
  }
  EXPECT_GT(mix.aggregate.energy.get("l1.leakage"), per_core_l1_leak);
  // And the breakdown still reconciles with the aggregate EPI.
  const EpiBreakdown epi = epi_breakdown(mix.aggregate);
  EXPECT_NEAR(epi.total(), mix.aggregate.epi(),
              1e-12 * std::max(1.0, mix.aggregate.epi()));
}

TEST(Multicore, SmallMulticoreSweepByteIdenticalAcrossThreadCounts) {
  // Tier-1 pin of the sweep-level guarantee for the multicore path (the
  // broader cores x mix determinism matrix lives in the slow-labelled
  // test_explore_determinism): 1- and 2-thread runs must emit the same
  // bytes through run_mix and the arbiter.
  const explore::SweepSpec spec = explore::SweepSpec::parse(R"({
    "kind": "simulation",
    "seed": 5,
    "axes": {
      "scenario": ["A"],
      "design": ["proposed"],
      "l2": ["baseline"],
      "l2_size_kb": [32],
      "cores": [1, 2],
      "mode": ["ule"],
      "workload_mix": ["adpcm_c+epic_d"]
    }
  })");
  EXPECT_EQ(explore::run_sweep(spec, 1).to_csv(),
            explore::run_sweep(spec, 2).to_csv());
}

TEST(Multicore, L2LessChipSharesAndArbitratesTheMemoryPort) {
  // Without an L2 the private L1s contend for the memory terminal.
  SystemConfig config =
      base_config(yield::Scenario::kA, false, power::Mode::kHp, 2, false);
  System system(config, cell_plan_for(config.design.scenario));
  ASSERT_NE(system.arbiter(), nullptr);
  const MulticoreResult mix = system.run_mix({"gsm_c", "g721_c"});

  const cache::LevelStats* mem = mix.aggregate.level("MEM");
  ASSERT_NE(mem, nullptr);
  std::uint64_t l1_fills = 0;
  std::uint64_t l1_writebacks = 0;
  for (const cpu::RunResult& core : mix.per_core) {
    l1_fills += core.il1.fills + core.dl1.fills;
    l1_writebacks += core.il1.writebacks + core.dl1.writebacks;
  }
  EXPECT_EQ(mem->accesses, l1_fills + l1_writebacks);
  EXPECT_GT(mem->contention_cycles, 0u);
}

// ---------------------------------------------------------------------
// HP <-> ULE mode switch with two cores mid-run.
// ---------------------------------------------------------------------

TEST(Multicore, TwoCoreModeSwitchDrainsEveryL1IntoTheL2) {
  SystemConfig config =
      base_config(yield::Scenario::kA, true, power::Mode::kHp, 2, true);
  System system(config, cell_plan_for(config.design.scenario));

  // Dirty both cores' DL1 HP ways, then gate them off.
  const MulticoreResult before = system.run_mix({"gsm_c", "g721_c"});
  (void)before;
  system.set_mode(power::Mode::kUle);

  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_GT(system.dl1(c).stats().mode_switch_writebacks, 0u) << c;
  }
  EXPECT_GT(system.mode_switch_energy_j(), 0.0);
  EXPECT_EQ(system.mode_switches(), 1u);

  // The drain ran through the shared hierarchy and the chip still works:
  // a ULE-mode mix completes with every self-check green.
  const MulticoreResult after = system.run_mix({"adpcm_c", "epic_c"});
  EXPECT_GT(after.aggregate.instructions, 0u);
  for (const cpu::RunResult& core : after.per_core) {
    EXPECT_GT(core.instructions, 0u);
  }

  // And back: ULE -> HP re-enables the HP ways on every core.
  system.set_mode(power::Mode::kHp);
  EXPECT_EQ(system.mode_switches(), 2u);
  const MulticoreResult hp_again = system.run_mix({"gsm_c", "g721_c"});
  EXPECT_GT(hp_again.aggregate.instructions, 0u);
}

// ---------------------------------------------------------------------
// Arbitration property tests (direct, against a flat memory terminal with
// a fixed per-request latency so service time is a known constant).
// ---------------------------------------------------------------------

constexpr std::size_t kMemLatency = 20;

struct ArbiterFixture {
  cache::MainMemory memory;
  cache::MainMemoryLevel terminal{memory, kMemLatency};
  cache::ArbitratedLevel arb;

  explicit ArbiterFixture(std::size_t requesters)
      : arb(terminal, requesters, 1.0) {}

  /// One line fetch from `requester`; returns composed latency.
  std::size_t fetch(std::size_t requester, std::uint64_t addr) {
    std::uint32_t buf[8] = {};
    arb.begin_request(requester);
    return arb.fetch_block(addr, buf, 8);
  }
};

TEST(ArbitrationProperty, LatencyMonotonicallyNonDecreasingInRequesters) {
  // The k-th core to request in a round waits out k earlier cores'
  // service: composed latency must be non-decreasing in the number of
  // outstanding requesters, for every k up to the core count.
  constexpr std::size_t kCores = 8;
  ArbiterFixture fx(kCores);
  std::size_t previous = 0;
  for (std::size_t k = 0; k < kCores; ++k) {
    fx.arb.new_round();
    // k other requesters go first in this round.
    for (std::size_t r = 0; r < k; ++r) {
      (void)fx.fetch(r, 0x1000 * (r + 1));
    }
    const std::size_t latency = fx.fetch(kCores - 1, 0x9000);
    EXPECT_GE(latency, previous) << "outstanding=" << k;
    EXPECT_EQ(latency, kMemLatency * (k + 1));  // single-port: exact
    previous = latency;
  }
}

TEST(ArbitrationProperty, SingleOwnerNeverQueues) {
  // A core that owns the level sees zero contention delay — even issuing
  // several requests per round (fill + dirty write-back of one miss).
  ArbiterFixture fx(4);
  for (std::size_t round = 0; round < 50; ++round) {
    EXPECT_EQ(fx.fetch(2, 0x40 * round), kMemLatency);
    EXPECT_EQ(fx.fetch(2, 0x40 * round + 0x100000), kMemLatency);
    fx.arb.new_round();
  }
  EXPECT_EQ(fx.arb.contention_cycles(), 0u);
  EXPECT_EQ(fx.arb.contended_requests(), 0u);
}

TEST(ArbitrationProperty, RotatingRoundRobinGrantsPrioritySlotFairly) {
  // Uniform demand (every requester requests every round), interleaver
  // rotation: the uncontended priority slot must circulate, with
  // per-requester priority-grant counts differing by at most 1 for any
  // number of rounds.
  constexpr std::size_t kCores = 3;
  ArbiterFixture fx(kCores);
  for (std::size_t rounds : {std::size_t{7}, std::size_t{8}, std::size_t{9}}) {
    fx.arb.clear_level_counters();
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t k = 0; k < kCores; ++k) {
        const std::size_t r = (round + k) % kCores;  // the rotation
        (void)fx.fetch(r, 0x40 * (round * kCores + r));
      }
      fx.arb.new_round();
    }
    const auto& priority = fx.arb.priority_grants();
    const auto [lo, hi] = std::minmax_element(priority.begin(), priority.end());
    EXPECT_LE(*hi - *lo, 1u) << "rounds=" << rounds;
    // Every request was granted; totals match demand exactly.
    for (std::size_t r = 0; r < kCores; ++r) {
      EXPECT_EQ(fx.arb.grants()[r], rounds);
    }
  }
}

TEST(ArbitrationProperty, GrantCountsUnderUniformSystemDemandDifferByAtMostOne) {
  // End-to-end fairness: identical workloads on every core -> identical
  // shared-level demand -> grant counts equal up to the final ragged round.
  SystemConfig config =
      base_config(yield::Scenario::kA, false, power::Mode::kHp, 3, true);
  System system(config, cell_plan_for(config.design.scenario));
  const MulticoreResult mix = system.run_mix({"gsm_c", "gsm_c", "gsm_c"});
  (void)mix;
  const auto& grants = system.arbiter()->grants();
  const auto [lo, hi] = std::minmax_element(grants.begin(), grants.end());
  EXPECT_GT(*lo, 0u);
  EXPECT_LE(*hi - *lo, 1u);
}

}  // namespace
}  // namespace hvc::sim
