// Differential pin of the replay fast path: every op issued through
// Cache::access_batched must match the reference Cache::access — the
// per-op hit/latency, every stat and every energy category as an exact
// double, after every op — and every block size threaded through
// Core::run / System::run_mix must retire bit-identical runs. FP
// accumulation is order-sensitive, so these tests use EXPECT_EQ on
// doubles throughout: "close" means the fast path took a different
// arithmetic route.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/workloads/workload.hpp"

namespace hvc {
namespace {

using cache::AccessType;

// ---------------------------------------------------------------------
// Cache-level differential: twin caches, one driven through access(),
// one through access_batched().
// ---------------------------------------------------------------------

/// Paper-shaped 8KB 7+1 cache, parameterized over the axes the fast path
/// special-cases: EDC codecs, hard faults (tag faults force the access()
/// fallback per set), and the write policy.
[[nodiscard]] cache::CacheConfig shaped_config(edc::Protection hp_protection,
                                               edc::Protection ule_protection,
                                               double ule_pf,
                                               cache::WritePolicy policy) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    config.ways[w].hp_protection = hp_protection;
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].hp_protection = hp_protection;
  config.ways[7].ule_protection = ule_protection;
  config.way_hard_pf.assign(8, 0.0);
  config.way_hard_pf[7] = ule_pf;
  config.write_policy = policy;
  return config;
}

struct Op {
  std::uint64_t addr = 0;
  AccessType type = AccessType::kLoad;
  std::uint32_t store_value = 0;
};

/// Mixed op stream over ~2x the cache footprint: hits, misses,
/// evictions, 1 store per 4 ops, 1 ifetch per 7.
[[nodiscard]] std::vector<Op> op_stream(std::size_t count,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].addr = (rng.below(2 * 8 * 1024) / 4) * 4;
    ops[i].type = (i % 4 == 3)   ? AccessType::kStore
                  : (i % 7 == 0) ? AccessType::kIfetch
                                 : AccessType::kLoad;
    ops[i].store_value = static_cast<std::uint32_t>(i * 2654435761ULL);
  }
  return ops;
}

/// Every stat and both energy categories, compared exactly.
[[nodiscard]] bool same_counters(const cache::Cache& reference,
                                 const cache::Cache& batched) {
  const cache::CacheStats& a = reference.stats();
  const cache::CacheStats& b = batched.stats();
  return a.accesses == b.accesses && a.hits == b.hits &&
         a.misses == b.misses && a.loads == b.loads &&
         a.stores == b.stores && a.ifetches == b.ifetches &&
         a.fills == b.fills && a.writebacks == b.writebacks &&
         a.edc_corrections == b.edc_corrections &&
         a.edc_detected == b.edc_detected &&
         a.mode_switch_writebacks == b.mode_switch_writebacks &&
         reference.dynamic_energy_j() == batched.dynamic_energy_j() &&
         reference.edc_energy_j() == batched.edc_energy_j();
}

void expect_stats_equal(const cache::Cache& reference,
                        const cache::Cache& batched, const char* what) {
  const cache::CacheStats& a = reference.stats();
  const cache::CacheStats& b = batched.stats();
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.ifetches, b.ifetches) << what;
  EXPECT_EQ(a.fills, b.fills) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.edc_corrections, b.edc_corrections) << what;
  EXPECT_EQ(a.edc_detected, b.edc_detected) << what;
  EXPECT_EQ(a.mode_switch_writebacks, b.mode_switch_writebacks) << what;
  // The pin that matters most: FP energy, exactly.
  EXPECT_EQ(reference.dynamic_energy_j(), batched.dynamic_energy_j()) << what;
  EXPECT_EQ(reference.edc_energy_j(), batched.edc_energy_j()) << what;
}

/// Drives the same op stream through a reference twin (access()) and a
/// fast-path twin (access_batched(), one call per op, as cpu::Core
/// issues them), switching both to `switch_mode` before op `switch_at`
/// when set. Compares the hit/latency, every stat and both energy
/// categories after every op, then the memory images.
void run_differential(const cache::CacheConfig& config, power::Mode mode,
                      const char* what, std::size_t switch_at = 0,
                      power::Mode switch_mode = power::Mode::kHp) {
  cache::MainMemory mem_a, mem_b;
  Rng rng_a(7), rng_b(7);
  cache::MainMemoryLevel term_a(mem_a, cache::kPaperMemoryLatencyCycles);
  cache::MainMemoryLevel term_b(mem_b, cache::kPaperMemoryLatencyCycles);
  cache::Cache reference(config, term_a, rng_a);
  cache::Cache batched(config, term_b, rng_b);
  reference.set_mode(mode);
  batched.set_mode(mode);

  const std::vector<Op> ops = op_stream(4096, 42);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (switch_at != 0 && i == switch_at) {
      reference.set_mode(switch_mode);
      batched.set_mode(switch_mode);
    }
    const Op& op = ops[i];
    bool hit = false;
    std::uint32_t latency = 0;
    batched.access_batched(op.addr, op.type, op.store_value, hit, latency);
    const cache::AccessResult ref =
        reference.access(op.addr, op.type, op.store_value);
    ASSERT_EQ(ref.hit, hit) << what << " op " << i;
    ASSERT_EQ(static_cast<std::uint32_t>(ref.latency_cycles), latency)
        << what << " op " << i;
    if (!same_counters(reference, batched)) {
      expect_stats_equal(reference, batched, what);
      FAIL() << what << ": counters diverge at op " << i;
    }
  }
  expect_stats_equal(reference, batched, what);
  // The stored memory images must agree too (stores/writebacks).
  for (std::uint64_t a = 0; a < 2 * 8 * 1024; a += 512) {
    EXPECT_EQ(mem_a.read_word(a), mem_b.read_word(a)) << what;
  }
}

TEST(BatchDifferential, HpUncodedBitIdentical) {
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 0.0,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "hp-uncoded");
}

TEST(BatchDifferential, HpCodedBitIdentical) {
  // SECDED on every way at HP: lookup tag-decode charges, per-load data
  // decode and per-store encode all replay through the fast path.
  run_differential(shaped_config(edc::Protection::kSecded,
                                 edc::Protection::kSecded, 0.0,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "hp-coded");
}

TEST(BatchDifferential, UleFaultyBitIdentical) {
  // Exaggerated Pf: stuck tag bits force the per-set access() fallback
  // and stuck data bits feed the live correction path — both must land
  // on exactly the reference counters.
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 3e-3,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kUle, "ule-faulty");
}

TEST(BatchDifferential, WriteThroughBitIdentical) {
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 0.0,
                                 cache::WritePolicy::kWriteThroughNoAllocate),
                   power::Mode::kHp, "write-through");
}

TEST(BatchDifferential, MidStreamModeSwitchBitIdentical) {
  // HP -> ULE at op 1000: the drain writebacks, the fast-path context
  // invalidation and the post-switch ULE accounting must all replay
  // exactly.
  run_differential(shaped_config(edc::Protection::kNone,
                                 edc::Protection::kSecded, 1e-3,
                                 cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "mode-switch", 1000, power::Mode::kUle);
}

// ---------------------------------------------------------------------
// Associativity sweep: the vectorized hit probe (PR 8) compares probe
// rows padded to a multiple of the vector width, so ways 1 and 2 probe
// mostly sentinel lanes and way 8 fills two full vectors. Every width
// must match the reference bit-identically — same hits, same
// exact-double energy — across the codec, fault and write-policy axes.
// ---------------------------------------------------------------------
/// 8KB cache at `ways` associativity (sets shrink to keep the paper's
/// capacity), last way always the ULE way.
[[nodiscard]] cache::CacheConfig ways_config(std::size_t ways,
                                             edc::Protection hp_protection,
                                             edc::Protection ule_protection,
                                             double ule_pf,
                                             cache::WritePolicy policy) {
  cache::CacheConfig config;
  config.org.ways = ways;
  config.ways.resize(ways);
  for (std::size_t w = 0; w + 1 < ways; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    config.ways[w].hp_protection = hp_protection;
  }
  config.ways[ways - 1].ule_way = true;
  config.ways[ways - 1].cell = {tech::CellKind::k8T, 2.8};
  config.ways[ways - 1].hp_protection = hp_protection;
  config.ways[ways - 1].ule_protection = ule_protection;
  config.way_hard_pf.assign(ways, 0.0);
  config.way_hard_pf[ways - 1] = ule_pf;
  config.write_policy = policy;
  return config;
}

class BatchWays : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchWays, HpUncodedBitIdentical) {
  // The probe's home shape: uncoded HP, every hit resolved by the MRU
  // hint or the probe-key row scan, at every associativity.
  run_differential(ways_config(GetParam(), edc::Protection::kNone,
                               edc::Protection::kSecded, 0.0,
                               cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "ways-hp-uncoded");
}

TEST_P(BatchWays, HpCodedBitIdentical) {
  run_differential(ways_config(GetParam(), edc::Protection::kSecded,
                               edc::Protection::kSecded, 0.0,
                               cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kHp, "ways-hp-coded");
}

TEST_P(BatchWays, UleFaultyBitIdentical) {
  run_differential(ways_config(GetParam(), edc::Protection::kNone,
                               edc::Protection::kSecded, 3e-3,
                               cache::WritePolicy::kWriteBackAllocate),
                   power::Mode::kUle, "ways-ule-faulty");
}

TEST_P(BatchWays, WriteThroughBitIdentical) {
  run_differential(ways_config(GetParam(), edc::Protection::kNone,
                               edc::Protection::kSecded, 0.0,
                               cache::WritePolicy::kWriteThroughNoAllocate),
                   power::Mode::kHp, "ways-write-through");
}

INSTANTIATE_TEST_SUITE_P(Ways, BatchWays, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------
// System-level differential: whole-run results across block sizes. All
// sizes run the one replay loop; these pin its refill boundaries.
// ---------------------------------------------------------------------

/// Bit-identical comparison of two run results (same contract as
/// test_multicore's pin: EXPECT_EQ on every double).
void expect_run_identical(const cpu::RunResult& a, const cpu::RunResult& b,
                          const char* what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.seconds, b.seconds) << what;
  const auto& items_a = a.energy.items();
  ASSERT_EQ(items_a.size(), b.energy.items().size()) << what;
  for (const auto& [key, value] : items_a) {
    EXPECT_EQ(value, b.energy.get(key)) << what << " category " << key;
  }
  EXPECT_EQ(a.il1.accesses, b.il1.accesses) << what;
  EXPECT_EQ(a.il1.hits, b.il1.hits) << what;
  EXPECT_EQ(a.dl1.accesses, b.dl1.accesses) << what;
  EXPECT_EQ(a.dl1.hits, b.dl1.hits) << what;
  EXPECT_EQ(a.il1.writebacks, b.il1.writebacks) << what;
  EXPECT_EQ(a.dl1.writebacks, b.dl1.writebacks) << what;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].name, b.levels[i].name) << what;
    EXPECT_EQ(a.levels[i].accesses, b.levels[i].accesses) << what;
    EXPECT_EQ(a.levels[i].hits, b.levels[i].hits) << what;
    EXPECT_EQ(a.levels[i].contention_cycles, b.levels[i].contention_cycles)
        << what;
    EXPECT_EQ(a.levels[i].dynamic_energy_j, b.levels[i].dynamic_energy_j)
        << what;
    EXPECT_EQ(a.levels[i].edc_energy_j, b.levels[i].edc_energy_j) << what;
  }
}

[[nodiscard]] sim::SystemConfig system_config(yield::Scenario scenario,
                                              power::Mode mode,
                                              std::size_t num_cores = 1,
                                              bool with_l2 = false) {
  sim::SystemConfig config;
  config.design.scenario = scenario;
  config.design.proposed = true;
  config.mode = mode;
  config.num_cores = num_cores;
  if (with_l2) {
    config.hierarchy.l2 = sim::L2Spec{};
  }
  return config;
}

TEST(SystemBatch, RunTraceBlockSizesBitIdenticalFig3) {
  // Fig. 3 shape: HP BigBench through the single-core replay loop.
  const sim::SystemConfig config =
      system_config(yield::Scenario::kA, power::Mode::kHp);
  const auto workload = wl::find_workload("gsm_c").run(1, 1);
  trace::MemoryTraceSource source(workload.tracer);

  sim::System reference(config, sim::cell_plan_for(config.design.scenario));
  const cpu::RunResult block1 = reference.run_trace(source, 1);
  for (const std::size_t block : {std::size_t{3}, std::size_t{256},
                                  std::size_t{1000}}) {
    sim::System system(config, sim::cell_plan_for(config.design.scenario));
    expect_run_identical(block1, system.run_trace(source, block), "fig3");
  }
}

TEST(SystemBatch, RunTraceBlockSizesBitIdenticalFig4) {
  // Fig. 4 shape: ULE SmallBench (scenario B exercises DECTED at ULE).
  const sim::SystemConfig config =
      system_config(yield::Scenario::kB, power::Mode::kUle);
  const auto workload = wl::find_workload("adpcm_c").run(1, 1);
  trace::MemoryTraceSource source(workload.tracer);

  sim::System reference(config, sim::cell_plan_for(config.design.scenario));
  const cpu::RunResult block1 = reference.run_trace(source, 1);
  for (const std::size_t block : {std::size_t{3}, std::size_t{256}}) {
    sim::System system(config, sim::cell_plan_for(config.design.scenario));
    expect_run_identical(block1, system.run_trace(source, block), "fig4");
  }
}

TEST(SystemBatch, RunTraceWithL2BitIdentical) {
  const sim::SystemConfig config =
      system_config(yield::Scenario::kA, power::Mode::kHp, 1, true);
  const auto workload = wl::find_workload("epic_c").run(1, 1);
  trace::MemoryTraceSource source(workload.tracer);

  sim::System reference(config, sim::cell_plan_for(config.design.scenario));
  const cpu::RunResult block1 = reference.run_trace(source, 1);
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  expect_run_identical(block1, system.run_trace(source, 256), "l2");
}

void expect_mix_identical(const sim::MulticoreResult& a,
                          const sim::MulticoreResult& b, const char* what) {
  ASSERT_EQ(a.per_core.size(), b.per_core.size()) << what;
  for (std::size_t c = 0; c < a.per_core.size(); ++c) {
    expect_run_identical(a.per_core[c], b.per_core[c], what);
  }
  expect_run_identical(a.aggregate, b.aggregate, what);
}

TEST(SystemBatch, RunMixArbiterBlockSizesBitIdentical) {
  // 2 cores contending for the shared memory port through the arbiter:
  // the interleaver must keep one round order (and with it every
  // contention cycle) at any block size.
  const sim::SystemConfig config =
      system_config(yield::Scenario::kA, power::Mode::kHp, 2, false);
  const auto wl_a = wl::find_workload("gsm_c").run(1, 1);
  const auto wl_b = wl::find_workload("adpcm_c").run(1, 1);

  auto run_at = [&](std::size_t block) {
    trace::MemoryTraceSource src_a(wl_a.tracer);
    trace::MemoryTraceSource src_b(wl_b.tracer);
    std::vector<trace::TraceSource*> sources{&src_a, &src_b};
    sim::System system(config, sim::cell_plan_for(config.design.scenario));
    return system.run_mix_sources(sources, {"gsm_c", "adpcm_c"}, block);
  };

  const sim::MulticoreResult block1 = run_at(1);
  expect_mix_identical(block1, run_at(3), "arbiter block 3");
  expect_mix_identical(block1, run_at(256), "arbiter block 256");
}

TEST(SystemBatch, RunMixSharedL2BlockSizesBitIdentical) {
  // 2 cores in front of a shared L2 (arbiter + stateful shared level):
  // the strictest interleaving pin — L2 set state depends on the exact
  // cross-core record order.
  const sim::SystemConfig config =
      system_config(yield::Scenario::kA, power::Mode::kHp, 2, true);
  const auto wl_a = wl::find_workload("epic_c").run(1, 1);
  const auto wl_b = wl::find_workload("adpcm_d").run(1, 1);

  auto run_at = [&](std::size_t block) {
    trace::MemoryTraceSource src_a(wl_a.tracer);
    trace::MemoryTraceSource src_b(wl_b.tracer);
    std::vector<trace::TraceSource*> sources{&src_a, &src_b};
    sim::System system(config, sim::cell_plan_for(config.design.scenario));
    return system.run_mix_sources(sources, {"epic_c", "adpcm_d"}, block);
  };

  const sim::MulticoreResult block1 = run_at(1);
  expect_mix_identical(block1, run_at(256), "shared-l2 block 256");
}

}  // namespace
}  // namespace hvc
