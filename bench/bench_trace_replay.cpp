// TRACE REPLAY — throughput of the streaming .hvct pipeline: encode
// (record once), decode (stream the file), and full-system replay from
// disk vs the in-memory capture. The decode and replay rates bound how
// fast `hvc_explore` can fan sweeps out over recorded traces, and the
// disk-vs-memory pair shows what the bounded-window reader costs on the
// hot replay path (both decode the same payload format).
#include "bench_common.hpp"

#include <cstdio>
#include <string>

#include "hvc/sim/system.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"

namespace {

using namespace hvc;
using namespace hvc::bench;

/// One recorded gsm_c capture + its .hvct file, shared across benchmarks
/// (recording is deterministic, so every benchmark sees the same trace).
struct RecordedTrace {
  wl::WorkloadResult workload;
  std::string path;

  RecordedTrace()
      : workload(wl::find_workload("gsm_c").run(1, 1)),
        path("bench_trace_replay.hvct") {
    (void)trace::write_trace(path, workload.tracer);
  }
};

[[nodiscard]] const RecordedTrace& recorded() {
  static RecordedTrace trace;
  return trace;
}

/// Capture-side emission throughput: records/second appended to a
/// Tracer through the exec/load/store hooks (the loop every workload
/// kernel drives). The Tracer encodes each record into its in-memory
/// payload as it is captured, so this row times the shared encoder.
void BM_TraceGen(benchmark::State& state) {
  std::uint64_t records = 0;
  for (auto _ : state) {
    trace::Tracer tracer;
    tracer.reserve(1 << 16);
    const trace::Block hot = tracer.block(12);
    const std::uint64_t data = tracer.alloc_data(4096);
    for (std::size_t i = 0; i < 3500; ++i) {
      tracer.exec(hot, /*taken=*/true);
      tracer.load(data + (i * 4) % 4096);
      if (i % 4 == 0) {
        tracer.store(data + (i * 8) % 4096);
      }
    }
    benchmark::DoNotOptimize(tracer.records().data());
    records += tracer.records().size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_TraceGen);

/// Encode throughput: records/second streamed through TraceWriter.
void BM_TraceWrite(benchmark::State& state) {
  const RecordedTrace& fixture = recorded();
  const std::string path = fixture.path + ".write";
  std::uint64_t records = 0;
  for (auto _ : state) {
    const trace::TraceStats stats =
        trace::write_trace(path, fixture.workload.tracer);
    benchmark::DoNotOptimize(stats.instructions);
    records += fixture.workload.tracer.records().size();
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_TraceWrite)->Unit(benchmark::kMillisecond);

/// Decode throughput: records/second pulled out of a TraceFileSource a
/// block at a time, as the replay loops pull them (this times the
/// shared block decoder plus the file window's refills).
void BM_TraceDecode(benchmark::State& state) {
  trace::TraceFileSource source(recorded().path);
  std::uint64_t records = 0;
  trace::Record block[trace::kReplayBlockRecords];
  for (auto _ : state) {
    source.reset();
    std::size_t got = 0;
    while ((got = source.next_batch(block, trace::kReplayBlockRecords)) > 0) {
      benchmark::DoNotOptimize(block[got - 1].addr);
      records += got;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.counters["bytes_per_record"] =
      static_cast<double>(source.info().payload_bytes) /
      static_cast<double>(source.info().records);
}
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMillisecond);

/// Full-system replay, from the in-memory capture vs streamed from disk:
/// the delta is the file pipeline's cost on the paper's evaluation path.
void BM_ReplayFromMemory(benchmark::State& state) {
  sim::SystemConfig config;
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  trace::MemoryTraceSource source(recorded().workload.tracer);
  std::uint64_t records = 0;
  for (auto _ : state) {
    const cpu::RunResult result = system.run_trace(source);
    benchmark::DoNotOptimize(result.cycles);
    records += recorded().workload.tracer.records().size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ReplayFromMemory)->Unit(benchmark::kMillisecond);

void BM_ReplayFromDisk(benchmark::State& state) {
  sim::SystemConfig config;
  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  trace::TraceFileSource source(recorded().path);
  std::uint64_t records = 0;
  for (auto _ : state) {
    const cpu::RunResult result = system.run_trace(source);
    benchmark::DoNotOptimize(result.cycles);
    records += source.info().records;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ReplayFromDisk)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  hvc::bench::print_header(
      "TRACE REPLAY", "streaming .hvct capture/replay vs in-memory traces");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::remove(recorded().path.c_str());
  return 0;
}
