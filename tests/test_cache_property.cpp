// Property-based cache tests: a golden-model check over randomized access
// sequences, parameterized across cache geometries (including the
// direct-mapped and fully-associative organisations the paper says the
// design extends to), write policies and operating modes.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"

namespace hvc::cache {
namespace {

struct Geometry {
  std::size_t size_bytes;
  std::size_t ways;
  std::size_t line_bytes;
  std::size_t ule_ways;
};

using Param = std::tuple<Geometry, WritePolicy, power::Mode>;

[[nodiscard]] CacheConfig make_config(const Geometry& geometry,
                                      WritePolicy policy) {
  CacheConfig config;
  config.org.size_bytes = geometry.size_bytes;
  config.org.ways = geometry.ways;
  config.org.line_bytes = geometry.line_bytes;
  config.write_policy = policy;
  config.ways.resize(geometry.ways);
  for (std::size_t w = 0; w < geometry.ways; ++w) {
    const bool ule = w >= geometry.ways - geometry.ule_ways;
    config.ways[w].ule_way = ule;
    if (ule) {
      config.ways[w].cell = {tech::CellKind::k8T, 2.8};
      config.ways[w].ule_protection = edc::Protection::kSecded;
    } else {
      config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    }
  }
  return config;
}

class CacheGolden : public ::testing::TestWithParam<Param> {};

/// The invariant: whatever the organisation, mode or policy, every load
/// must return exactly what a flat memory model would return.
TEST_P(CacheGolden, LoadsMatchFlatMemoryModel) {
  const auto& [geometry, policy, mode] = GetParam();
  MainMemory memory;
  Rng rng(99);
  const CacheConfig config = make_config(geometry, policy);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(mode);

  std::map<std::uint64_t, std::uint32_t> golden;
  Rng ops(1234);
  // Address space ~4x the cache: plenty of conflict evictions.
  const std::uint64_t space = geometry.size_bytes * 4;

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t addr = (ops.below(space) / 4) * 4;
    if (ops.bernoulli(0.35)) {
      const auto value = static_cast<std::uint32_t>(ops.next());
      golden[addr] = value;
      (void)cache.access(addr, AccessType::kStore, value);
    } else {
      const auto result = cache.access(addr, AccessType::kLoad);
      const auto expect_it = golden.find(addr);
      const std::uint32_t expect =
          expect_it == golden.end() ? 0u : expect_it->second;
      ASSERT_EQ(result.data, expect)
          << "addr=" << addr << " op=" << op << " hit=" << result.hit;
    }
  }

  // After flushing, memory agrees with the golden model everywhere.
  cache.flush();
  for (const auto& [addr, value] : golden) {
    ASSERT_EQ(memory.read_word(addr), value) << "addr=" << addr;
  }
}

TEST_P(CacheGolden, StatsInvariants) {
  const auto& [geometry, policy, mode] = GetParam();
  MainMemory memory;
  Rng rng(5);
  const CacheConfig config = make_config(geometry, policy);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(mode);
  Rng ops(77);
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t addr = (ops.below(geometry.size_bytes * 2) / 4) * 4;
    const auto type = ops.bernoulli(0.3) ? AccessType::kStore
                                         : AccessType::kLoad;
    (void)cache.access(addr, type, 1);
  }
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_EQ(s.loads + s.stores + s.ifetches, s.accesses);
  if (policy == WritePolicy::kWriteBackAllocate) {
    EXPECT_GE(s.fills, s.misses > 0 ? 1u : 0u);
    EXPECT_LE(s.writebacks, s.fills + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGolden,
    ::testing::Combine(
        ::testing::Values(
            Geometry{8192, 8, 32, 1},   // the paper's 8KB 8-way 7+1
            Geometry{8192, 8, 32, 2},   // 6+2 split
            Geometry{4096, 4, 64, 1},   // longer lines
            Geometry{2048, 2, 32, 1},   // 2-way
            Geometry{1024, 2, 16, 1},   // short lines
            Geometry{2048, 8, 16, 4}),  // fully-associative-ish, 4+4
        ::testing::Values(WritePolicy::kWriteBackAllocate,
                          WritePolicy::kWriteThroughNoAllocate),
        ::testing::Values(power::Mode::kHp, power::Mode::kUle)));

TEST(CacheOrganisations, FullyAssociativeSingleSet) {
  // 8 ways x 32B lines = 256B cache -> exactly one set.
  Geometry geometry{256, 8, 32, 1};
  MainMemory memory;
  Rng rng(6);
  const CacheConfig config =
      make_config(geometry, WritePolicy::kWriteBackAllocate);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  EXPECT_EQ(cache.config().org.sets(), 1u);
  // Eight distinct lines all fit regardless of address bits.
  for (int i = 0; i < 8; ++i) {
    memory.write_word(static_cast<std::uint64_t>(i) * 4096,
                      static_cast<std::uint32_t>(i));
    (void)cache.access(static_cast<std::uint64_t>(i) * 4096,
                       AccessType::kLoad);
  }
  cache.clear_stats();
  for (int i = 0; i < 8; ++i) {
    const auto result =
        cache.access(static_cast<std::uint64_t>(i) * 4096, AccessType::kLoad);
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.data, static_cast<std::uint32_t>(i));
  }
}

TEST(CacheOrganisations, DirectMappedUleWay) {
  // A single-way cache whose only way is the ULE way: direct-mapped and
  // operable in both modes.
  CacheConfig config;
  config.org.size_bytes = 1024;
  config.org.ways = 1;
  config.org.line_bytes = 32;
  config.ways.resize(1);
  config.ways[0].ule_way = true;
  config.ways[0].cell = {tech::CellKind::k8T, 2.8};
  config.ways[0].ule_protection = edc::Protection::kSecded;
  MainMemory memory;
  Rng rng(7);
  MainMemoryLevel terminal(memory, kPaperMemoryLatencyCycles);
  Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  memory.write_word(0, 1);
  memory.write_word(1024, 2);  // conflicts with address 0
  EXPECT_EQ(cache.access(0, AccessType::kLoad).data, 1u);
  EXPECT_EQ(cache.access(1024, AccessType::kLoad).data, 2u);
  const auto result = cache.access(0, AccessType::kLoad);
  EXPECT_FALSE(result.hit);  // direct-mapped conflict
  EXPECT_EQ(result.data, 1u);
}

}  // namespace
}  // namespace hvc::cache
