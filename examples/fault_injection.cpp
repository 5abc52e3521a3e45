// Fault-injection demo: watch the EDC datapath at work.
//
// Builds the proposed ULE way with an exaggerated hard-fault rate, streams
// data through it at ULE mode, and reports how SECDED keeps every load
// functionally exact; then stacks soft errors on top to show the
// scenario-B motivation for DECTED.
#include <cstdio>

#include "hvc/cache/cache.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/tech/sram_cell.hpp"

namespace {

hvc::cache::CacheConfig demo_config(hvc::edc::Protection protection,
                                    double pf) {
  using namespace hvc;
  cache::CacheConfig config;
  config.ways.resize(8);
  for (std::size_t w = 0; w < 7; ++w) {
    config.ways[w].cell = {tech::CellKind::k6T, 1.9};
  }
  config.ways[7].ule_way = true;
  config.ways[7].cell = {tech::CellKind::k8T, 2.8};
  config.ways[7].ule_protection = protection;
  config.way_hard_pf.assign(8, 0.0);
  config.way_hard_pf[7] = pf;
  return config;
}

struct StreamResult {
  std::size_t wrong = 0;
  hvc::cache::CacheStats stats;
};

StreamResult stream_through(hvc::cache::Cache& cache,
                            hvc::cache::MainMemory& memory) {
  using namespace hvc;
  StreamResult out;
  for (std::uint64_t a = 0; a < 1024; a += 4) {
    memory.write_word(a, static_cast<std::uint32_t>(a * 2654435761ULL));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 1024; a += 4) {
      const auto r = cache.access(a, cache::AccessType::kLoad);
      if (r.data != static_cast<std::uint32_t>(a * 2654435761ULL)) {
        ++out.wrong;
      }
    }
  }
  out.stats = cache.stats();
  return out;
}

}  // namespace

int main() {
  using namespace hvc;
  // Pf exaggerated to 3e-3 (the methodology would size for ~2e-4) so that
  // a 1KB way reliably contains a couple dozen stuck bits.
  constexpr double kDemoPf = 3e-3;

  std::printf("Fault-injection demo: 1KB 8T ULE way at 350 mV, Pf=%.0e\n\n",
              kDemoPf);

  for (const auto protection :
       {edc::Protection::kNone, edc::Protection::kSecded}) {
    cache::MainMemory memory;
    Rng rng(2024);
    const cache::CacheConfig config = demo_config(protection, kDemoPf);
    cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
    cache::Cache cache(config, terminal, rng);
    cache.set_mode(power::Mode::kUle);
    const StreamResult result = stream_through(cache, memory);
    std::printf("%7s: wrong loads %zu / 512, corrections %llu, "
                "uncorrectable %llu\n",
                to_string(protection).c_str(), result.wrong,
                static_cast<unsigned long long>(result.stats.edc_corrections),
                static_cast<unsigned long long>(result.stats.edc_detected));
  }

  std::printf("\nNow stack soft errors on a hard-faulty word "
              "(scenario B motivation):\n");
  for (const auto protection :
       {edc::Protection::kSecded, edc::Protection::kDected}) {
    cache::MainMemory memory;
    Rng rng(2024);
    const cache::CacheConfig config = demo_config(protection, 0.0);
    cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
    cache::Cache cache(config, terminal, rng);
    cache.set_mode(power::Mode::kUle);
    memory.write_word(0x100, 0xCAFE);
    (void)cache.access(0x100, cache::AccessType::kLoad);
    // One "hard" fault plus one soft error in the same word.
    cache.inject_bit_flip(7, 8, 2);
    cache.inject_bit_flip(7, 8, 19);
    const auto r = cache.access(0x100, cache::AccessType::kLoad);
    std::printf("%7s: data 0x%X (%s), corrected bits %zu, detected=%s\n",
                to_string(protection).c_str(), r.data,
                r.data == 0xCAFE ? "correct" : "WRONG",
                r.corrected_bits,
                r.detected_uncorrectable ? "yes (refetched from memory)"
                                         : "no");
  }
  std::printf("\nSECDED can only detect the double error (costing a miss);\n"
              "DECTED corrects it in place — exactly the paper's scenario-B\n"
              "argument for upgrading the code instead of upsizing cells.\n");
  return 0;
}
