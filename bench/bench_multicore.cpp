// MULTICORE — throughput of the multi-core interleaver: stepping N cores
// round-robin through the arbitrated shared hierarchy. BM_MulticoreStep
// is the per-record cost the cores x workload sweeps pay, so it bounds
// how far `hvc_explore` can push the `cores` axis.
#include "bench_common.hpp"

#include "hvc/sim/system.hpp"

namespace {

using namespace hvc;
using namespace hvc::bench;

[[nodiscard]] sim::SystemConfig multicore_config(std::size_t cores,
                                                 bool with_l2) {
  sim::SystemConfig config;
  config.design.scenario = yield::Scenario::kA;
  config.design.proposed = true;
  config.mode = power::Mode::kHp;
  config.num_cores = cores;
  if (with_l2) {
    config.hierarchy.l2 = sim::L2Spec{};
  }
  return config;
}

/// One full run_mix replay per iteration; reports records/second so core
/// counts are comparable (the interleaver steps one record per core per
/// round).
void BM_MulticoreStep(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  const bool with_l2 = state.range(1) != 0;
  sim::SystemConfig config = multicore_config(cores, with_l2);
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  const std::vector<std::string> mix{"gsm_c", "adpcm_c", "g721_c",
                                     "epic_c"};
  std::uint64_t records = 0;
  std::uint64_t contention = 0;
  for (auto _ : state) {
    const sim::MulticoreResult result = system.run_mix(mix);
    benchmark::DoNotOptimize(result.aggregate.cycles);
    std::uint64_t run_records = 0;
    for (const auto& core : result.per_core) {
      run_records +=
          core.il1.accesses + core.dl1.accesses;  // ifetch + load/store
    }
    records += run_records;
    if (const cache::LevelStats* shared =
            result.aggregate.level(with_l2 ? "L2" : "MEM")) {
      contention = shared->contention_cycles;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["contention_cycles"] = static_cast<double>(contention);
}
BENCHMARK(BM_MulticoreStep)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"cores", "l2"})
    ->Unit(benchmark::kMillisecond);

/// Raw arbitration cost: one begin_request + access + (per round)
/// new_round per requester against an uncontended memory terminal —
/// the per-record overhead the interleaver pays on top of the cache
/// model itself: a one-subtraction single-port delay, a precomputed
/// uncontended grant energy and an O(1) new_round (epoch-lazy reset).
/// This row tracks that cost in isolation.
void BM_ArbiterRound(benchmark::State& state) {
  const auto requesters = static_cast<std::size_t>(state.range(0));
  cache::MainMemory memory;
  cache::MainMemoryLevel inner(memory, 20);
  cache::ArbitratedLevel arbiter(inner, requesters, 1.0);
  std::uint64_t grants = 0;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < requesters; ++r) {
      arbiter.begin_request(r);
      benchmark::DoNotOptimize(
          arbiter.access(addr, cache::AccessType::kLoad));
      addr = (addr + 4) & 0xFFFF;
    }
    arbiter.new_round();
    grants += requesters;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(grants));
  state.counters["contention_cycles"] =
      static_cast<double>(arbiter.contention_cycles());
}
BENCHMARK(BM_ArbiterRound)->Arg(1)->Arg(2)->Arg(4)->ArgName("requesters");

}  // namespace

int main(int argc, char** argv) {
  hvc::bench::print_header(
      "MULTICORE", "round-robin interleaver + shared-L2 arbitration");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
