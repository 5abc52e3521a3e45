// CACHE — microbenchmarks of the bit-accurate cache's access hot path:
// a hit + miss mix with EDC-coded words, at HP and at ULE (faulty cells),
// plus a full scrub pass. These are the loops every figure reproduction
// funnels through, so their throughput bounds the whole harness.
#include "bench_common.hpp"

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"

namespace {

using namespace hvc;
using namespace hvc::bench;

/// Paper-shaped 8KB 8-way cache with SECDED on every way so the EDC
/// encode/decode path is exercised on each access.
[[nodiscard]] cache::CacheConfig coded_config() {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 8; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    config.ways[w].hp_protection = edc::Protection::kSecded;
  }
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_protection = edc::Protection::kSecded;
  config.ways[7].ule_way = true;
  return config;
}

/// Mixed address stream: ~2x the cache footprint so lookups split into a
/// realistic hit + miss mix; 1 store per 4 accesses.
[[nodiscard]] std::vector<std::uint64_t> address_stream(std::size_t count) {
  Rng rng(42);
  std::vector<std::uint64_t> addrs(count);
  const std::uint64_t footprint = 2 * 8 * 1024;
  for (auto& addr : addrs) {
    addr = (rng.below(footprint) / 4) * 4;
  }
  return addrs;
}

void BM_CacheAccess(benchmark::State& state) {
  cache::MainMemory memory;
  Rng rng(7);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(coded_config(), terminal, rng);
  const auto addrs = address_stream(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t addr = addrs[i];
    const auto type = (i % 4 == 3) ? cache::AccessType::kStore
                                   : cache::AccessType::kLoad;
    benchmark::DoNotOptimize(
        cache.access(addr, type, static_cast<std::uint32_t>(i)));
    i = (i + 1) % addrs.size();
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheAccess);

void BM_CacheAccessUle(benchmark::State& state) {
  cache::MainMemory memory;
  Rng rng(9);
  cache::CacheConfig config = coded_config();
  // Hard faults at the paper's sized-8T Pf: the fault map is consulted on
  // every ULE read.
  config.way_hard_pf.assign(8, 2e-4);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  const auto addrs = address_stream(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t addr = addrs[i];
    const auto type = (i % 4 == 3) ? cache::AccessType::kStore
                                   : cache::AccessType::kLoad;
    benchmark::DoNotOptimize(
        cache.access(addr, type, static_cast<std::uint32_t>(i)));
    i = (i + 1) % addrs.size();
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheAccessUle);

void BM_CacheAccessL2(benchmark::State& state) {
  // Same hit+miss mix, but L1 misses fill from a 32KB shared L2 through
  // the MemoryLevel interface instead of straight from memory: bounds the
  // hierarchy plumbing's cost per access (fetch_block/writeback_block).
  cache::MainMemory memory;
  Rng rng(13);
  cache::MainMemoryLevel terminal(memory, 20);
  cache::CacheConfig l2_config = coded_config();
  l2_config.name = "L2";
  l2_config.org.size_bytes = 32 * 1024;
  l2_config.hit_latency_cycles = 4;
  cache::Cache l2(l2_config, terminal, rng);
  cache::Cache l1(coded_config(), l2, rng);
  const auto addrs = address_stream(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint64_t addr = addrs[i];
    const auto type = (i % 4 == 3) ? cache::AccessType::kStore
                                   : cache::AccessType::kLoad;
    benchmark::DoNotOptimize(
        l1.access(addr, type, static_cast<std::uint32_t>(i)));
    i = (i + 1) % addrs.size();
  }
  state.counters["hit_rate"] = l1.stats().hit_rate();
  state.counters["l2_hit_rate"] = l2.stats().hit_rate();
}
BENCHMARK(BM_CacheAccessL2);

void BM_CacheScrub(benchmark::State& state) {
  cache::MainMemory memory;
  Rng rng(11);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(coded_config(), terminal, rng);
  // Warm the whole cache so the scrub walks every valid line.
  for (std::uint64_t addr = 0; addr < 8 * 1024; addr += 4) {
    (void)cache.access(addr, cache::AccessType::kLoad);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.scrub());
  }
}
BENCHMARK(BM_CacheScrub)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_header("CACHE", "cache access hot-path microbenchmarks");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
