// ABL3 — Extension ablation: soft-error scrubbing.
//
// The paper handles soft errors by code strength (scenario B's DECTED);
// an alternative (or complement) is periodic scrubbing, which clears
// accumulated correctable errors before a second strike lands in the same
// word. This bench quantifies the trade-off with the analytic Poisson
// model (hvc::yield::soft_reliability) and with live fault injection in
// the bit-accurate cache.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/common/units.hpp"
#include "hvc/tech/sram_cell.hpp"
#include "hvc/yield/soft_reliability.hpp"

namespace {

using namespace hvc;

void analytic_table() {
  std::printf("=====================================================\n");
  std::printf("ABL3 — soft-error accumulation vs scrub interval\n");
  std::printf("=====================================================\n");

  // SER of the sized 8T cell at 350 mV (per bit per second), plus an
  // accelerated rate representing a harsh radiation environment.
  const tech::CellDesign cell{tech::CellKind::k8T, 2.8};
  const double ser_nominal = tech::soft_error_rate_per_bit(cell, 0.35);
  std::printf("sized 8T cell SER at 350 mV: %.3e errors/bit/s\n", ser_nominal);

  // One ULE way: 256 data words of 39 bits (SECDED) or 45 bits (DECTED).
  const yield::SoftWordClass secded_clean{256, 39, 1};
  const yield::SoftWordClass dected_clean{256, 45, 2};
  // A word already holding one manifested hard fault loses one correction.
  const yield::SoftWordClass secded_faulty{1, 39, 0};
  const yield::SoftWordClass dected_faulty{1, 45, 1};

  for (const double ser : {ser_nominal, 1e-9}) {
    std::printf("\nSER = %.1e errors/bit/s%s\n", ser,
                ser == ser_nominal ? " (nominal)" : " (accelerated)");
    std::printf("%14s | %13s %13s | %14s %14s\n", "scrub interval",
                "SECDED MTTF", "DECTED MTTF", "SECDED+hf MTTF",
                "DECTED+hf MTTF");
    for (const double interval : {1.0, 3600.0, 86400.0, 1e6}) {
      std::printf("%12.0f s | %13.2e %13.2e | %14.2e %14.2e\n", interval,
                  yield::mttf_seconds(secded_clean, ser, interval),
                  yield::mttf_seconds(dected_clean, ser, interval),
                  yield::mttf_seconds(secded_faulty, ser, interval),
                  yield::mttf_seconds(dected_faulty, ser, interval));
    }
  }
  std::printf("(+hf = the one word containing a hard fault; scenario B's\n"
              " DECTED keeps even that word correctable between scrubs,\n"
              " and shorter scrub intervals multiply every MTTF)\n");
}

void live_injection() {
  std::printf("\nLive fault-injection: exaggerated SER, 10 epochs of 5s\n");
  std::printf("%10s | %12s %14s %14s\n", "scrub?", "injected", "corrected",
              "uncorrectable");
  for (const bool with_scrub : {false, true}) {
    cache::CacheConfig config;
    config.ways.resize(8);
    for (std::size_t w = 0; w < 7; ++w) {
      config.ways[w].cell = {tech::CellKind::k6T, 1.9};
    }
    config.ways[7].ule_way = true;
    config.ways[7].cell = {tech::CellKind::k8T, 2.8};
    config.ways[7].ule_protection = edc::Protection::kSecded;
    cache::MainMemory memory;
    Rng rng(99);
    cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
    cache::Cache cache(config, terminal, rng);
    cache.set_mode(power::Mode::kUle);
    for (std::uint64_t a = 0; a < 1024; a += 4) {
      memory.write_word(a, static_cast<std::uint32_t>(a + 3));
    }
    for (std::uint64_t a = 0; a < 1024; a += 4) {
      (void)cache.access(a, cache::AccessType::kLoad);
    }
    cache.enable_soft_errors(7, 2e-4);
    std::size_t corrected = 0;
    for (int epoch = 0; epoch < 10; ++epoch) {
      cache.advance_time(5.0);
      if (with_scrub) {
        corrected += cache.scrub().bits_corrected;
      }
    }
    // Final read sweep: remaining single errors corrected inline.
    for (std::uint64_t a = 0; a < 1024; a += 4) {
      (void)cache.access(a, cache::AccessType::kLoad);
    }
    const auto& stats = cache.stats();
    std::printf("%10s | %12llu %14llu %14llu\n", with_scrub ? "yes" : "no",
                static_cast<unsigned long long>(stats.soft_errors_injected),
                static_cast<unsigned long long>(stats.edc_corrections),
                static_cast<unsigned long long>(stats.edc_detected));
  }
  std::printf("(expected: with scrubbing, uncorrectable events drop to ~0)\n");
}

void BM_ScrubPass(benchmark::State& state) {
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_protection = edc::Protection::kSecded;
  cache::MainMemory memory;
  Rng rng(1);
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::Cache cache(config, terminal, rng);
  cache.set_mode(power::Mode::kUle);
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    (void)cache.access(a, cache::AccessType::kLoad);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.scrub());
  }
}
BENCHMARK(BM_ScrubPass)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  analytic_table();
  live_injection();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
