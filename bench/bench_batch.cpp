// BATCH — throughput of the replay fast path against the virtual
// Cache::access reference path. Two layers:
//   * BM_CacheAccessBatch: raw Cache::access_batched, `block` ops per
//     iteration, swept across block sizes AND stream shapes — the
//     resident uncoded-HP shape is the inline hit-probe fast path
//     (replay steady state), the other shapes price the miss, codec and
//     fault tails.
//   * BM_ReplayBlockSize: full System::run_trace replay of a real
//     workload trace, swept across block sizes — the end-to-end number
//     the hvc_explore sweeps and hvc_trace replay see.
// Every block size retires bit-identical results (tests/test_batch.cpp);
// these benches measure only the dispatch-overhead delta.
#include "bench_common.hpp"

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/workloads/workload.hpp"

namespace {

using namespace hvc;
using namespace hvc::bench;

/// Stream/cache shapes for BM_CacheAccessBatch's second argument. The
/// pre-PR-8 bench only ran kStreaming — a ~50% miss mix that never
/// stayed on the batched hit probe, so the fast path was invisible.
enum Shape : std::int64_t {
  kResident = 0,   ///< uncoded HP, working set fits: all-hit fast path
  kStreaming = 1,  ///< uncoded HP, ~2x footprint: miss/evict mix
  kCoded = 2,      ///< SECDED on every way at HP: per-access codec tail
  kFaulty = 3,     ///< ULE with exaggerated Pf: per-set scalar fallback
};

[[nodiscard]] const char* shape_name(std::int64_t shape) {
  switch (shape) {
    case kResident:
      return "resident";
    case kStreaming:
      return "streaming";
    case kCoded:
      return "coded";
    case kFaulty:
      return "faulty";
  }
  return "?";
}

/// Paper-shaped 8KB 7+1 cache for one stream shape.
[[nodiscard]] cache::CacheConfig shape_config(std::int64_t shape) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 8; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    if (shape == kCoded) {
      config.ways[w].hp_protection = edc::Protection::kSecded;
    }
  }
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_way = true;
  config.ways[7].ule_protection = edc::Protection::kSecded;
  if (shape == kFaulty) {
    config.way_hard_pf.assign(8, 0.0);
    config.way_hard_pf[7] = 3e-3;
  }
  return config;
}

struct Op {
  std::uint64_t addr = 0;
  cache::AccessType type = cache::AccessType::kLoad;
  std::uint32_t store_value = 0;
};

/// Mixed op stream over `footprint` bytes; 1 store per 4 ops, 1 ifetch
/// per 7 (same mix shape as bench_cache_access).
[[nodiscard]] std::vector<Op> op_stream(std::size_t count,
                                        std::size_t footprint) {
  Rng rng(42);
  std::vector<Op> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops[i].addr = (rng.below(footprint) / 4) * 4;
    ops[i].type = (i % 4 == 3)   ? cache::AccessType::kStore
                  : (i % 7 == 0) ? cache::AccessType::kIfetch
                                 : cache::AccessType::kLoad;
    ops[i].store_value = static_cast<std::uint32_t>(i);
  }
  return ops;
}

/// The resident shape keeps the working set at half the cache so that,
/// after one warmup pass, every timed access is an inline-probe hit.
[[nodiscard]] std::size_t shape_footprint(std::int64_t shape) {
  return shape == kResident ? 4 * 1024 : 2 * 8 * 1024;
}

void BM_CacheAccessBatch(benchmark::State& state) {
  const auto block = static_cast<std::size_t>(state.range(0));
  const std::int64_t shape = state.range(1);
  cache::MainMemory memory;
  Rng rng(7);
  cache::CacheConfig config = shape_config(shape);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(config, terminal, rng);
  if (shape == kFaulty) {
    cache.set_mode(power::Mode::kUle);
  }
  const auto ops = op_stream(4096, shape_footprint(shape));

  bool hit = false;
  std::uint32_t latency = 0;
  // Warmup pass: fill the cache so the resident shape times steady-state
  // hits, not cold fills (the other shapes reach steady state too).
  for (const Op& op : ops) {
    cache.access_batched(op.addr, op.type, op.store_value, hit, latency);
  }

  std::size_t i = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < block; ++j) {
      const Op& op = ops[i];
      cache.access_batched(op.addr, op.type, op.store_value, hit, latency);
      i = (i + 1) % ops.size();
    }
    benchmark::DoNotOptimize(latency);
    records += block;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetLabel(shape_name(shape));
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheAccessBatch)
    ->ArgsProduct({{1, 16, 256, 1024}, {kResident, kStreaming}})
    ->Args({256, kCoded})
    ->Args({256, kFaulty})
    ->ArgNames({"block", "shape"});

/// Scalar baseline on the identical stream: what per-record dispatch
/// through the virtual access() looks like (the pre-PR-7 hot loop), on
/// the same shapes as the batch bench above.
void BM_CacheAccessScalar(benchmark::State& state) {
  const std::int64_t shape = state.range(0);
  cache::MainMemory memory;
  Rng rng(7);
  cache::CacheConfig config = shape_config(shape);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(config, terminal, rng);
  if (shape == kFaulty) {
    cache.set_mode(power::Mode::kUle);
  }
  const auto ops = op_stream(4096, shape_footprint(shape));
  for (const Op& op : ops) {
    (void)cache.access(op.addr, op.type, op.store_value);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Op& op = ops[i];
    benchmark::DoNotOptimize(cache.access(op.addr, op.type, op.store_value));
    i = (i + 1) % ops.size();
  }
  state.SetLabel(shape_name(shape));
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheAccessScalar)
    ->Arg(kResident)
    ->Arg(kStreaming)
    ->ArgName("shape");

/// End-to-end replay throughput vs block size: one full run_trace of a
/// BigBench trace per iteration. block=1 refills after every record;
/// 256 is the kReplayBlockRecords default the tools use.
void BM_ReplayBlockSize(benchmark::State& state) {
  const auto block = static_cast<std::size_t>(state.range(0));
  const auto workload = wl::find_workload("gsm_c").run(1, 1);
  trace::MemoryTraceSource source(workload.tracer);
  sim::SystemConfig config =
      paper_system(yield::Scenario::kA, true, power::Mode::kHp);
  sim::System system(config, sim::cell_plan_for(config.design.scenario));

  std::uint64_t records = 0;
  for (auto _ : state) {
    const cpu::RunResult result = system.run_trace(source, block);
    benchmark::DoNotOptimize(result.cycles);
    records += result.il1.accesses + result.dl1.accesses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ReplayBlockSize)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->ArgName("block")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  hvc::bench::print_header(
      "BATCH", "access_batched fast path vs the virtual access() path");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
