// In-order single-issue core model (MPSim + Wattch substitution).
//
// The paper models "a very simple processor architecture with one core and
// in-order execution" resembling Intel's wide-operating-range IA-32 chip
// (Jain et al., ISSCC 2012), with full-chip power from MPSim extended with
// Wattch-style models and the modified CACTI for all SRAM arrays.
//
// Timing: scalar in-order pipeline, base CPI of 1.
//   * IL1/DL1 hits are pipelined; misses stall for the full memory latency.
//   * The 1-cycle EDC decode lengthens the load-to-use path and the fetch
//     redirect path, so it costs cycles only on taken branches and on a
//     fraction of loads whose consumer is adjacent (paper IV-B2 reports
//     ~3% at ULE mode).
// Energy (Wattch-style, per structure):
//   * L1 caches: event energies + leakage from hvc::cache/hvc::power.
//   * Register file and TLBs: 10T SRAM arrays (the paper keeps every
//     non-L1 array in 10T so it works at any voltage).
//   * Core logic (fetch/decode/ALU/bypass/clock): switched-capacitance
//     per instruction + leakage, from the technology model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hvc/cache/cache.hpp"
#include "hvc/cache/memory_level.hpp"
#include "hvc/common/stats.hpp"
#include "hvc/power/array.hpp"
#include "hvc/trace/trace.hpp"

namespace hvc::cpu {

/// Microarchitectural timing/energy knobs.
struct CoreParams {
  /// Probability that a load's consumer issues next cycle (load-to-use
  /// stall shows the extra EDC cycle).
  double load_use_adjacent_prob = 0.12;
  /// Probability that a taken branch pays the fetch-redirect penalty
  /// (the remainder is hidden by the BTB / sequential prefetch).
  double redirect_on_taken = 0.5;
  /// Switched capacitance per executed instruction for the core logic
  /// (fetch/decode/issue/ALU/bypass/clock), in farads. Small: the paper's
  /// core is a minimal in-order machine where caches dominate chip energy.
  double core_cap_per_instr_f = 3.5e-13;
  /// Core logic leakage: equivalent leaking transistor width in um.
  double core_leak_width_um = 120.0;
  /// 10T cell sizing for the non-L1 arrays (regfile, TLBs); the paper
  /// sizes them to work at any operating voltage.
  tech::CellDesign array_cell{tech::CellKind::k10T, 3.5};
};

/// The core's connections into the memory hierarchy: the two first-level
/// caches it issues accesses to, plus the deeper shared levels behind them
/// (e.g. a shared L2, then the memory terminal) in front-to-back order.
/// Shared levels are cleared at run start and reported per level in
/// RunResult::levels; their dynamic/EDC/leakage energy is rolled into the
/// run's Breakdown under "<name>.dynamic" / "<name>.edc" / "<name>.leakage"
/// keys (name lowercased, zero entries omitted).
struct MemoryPorts {
  cache::Cache* il1 = nullptr;
  cache::Cache* dl1 = nullptr;
  std::vector<cache::MemoryLevel*> shared;
};

/// Lowercased energy-category prefix of a hierarchy level ("L2" -> "l2").
[[nodiscard]] std::string level_energy_prefix(const std::string& level_name);

/// Folds one shared level's snapshot into an energy breakdown under
/// "<prefix>.{dynamic,edc,leakage}" keys (leakage integrated over
/// `seconds`), omitting zero entries so L1-only breakdowns keep exactly
/// their historical categories. Shared by Core::finish_run and the
/// multi-core aggregate (sim::System::run_mix).
void add_shared_level_energy(Breakdown& energy,
                             const cache::LevelStats& stats, double seconds);

/// Result of replaying one trace.
struct RunResult {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double seconds = 0.0;
  /// Energy breakdown in joules. Categories:
  ///   "l1.dynamic", "l1.leakage", "l1.edc",
  ///   "arrays.dynamic", "arrays.leakage", "core.dynamic", "core.leakage"
  /// plus "l2.*" (and analogous) entries when shared levels are present.
  Breakdown energy;
  cache::CacheStats il1;
  cache::CacheStats dl1;
  /// Per-level snapshot of the whole hierarchy for this run: IL1, DL1,
  /// then every shared level (L2, MEM, ...) in MemoryPorts order. Every
  /// hierarchy shape ends in an explicit terminal owned by sim::System,
  /// so the "MEM" row is always present.
  std::vector<cache::LevelStats> levels;

  /// Stats of the level named `name` ("L2", "MEM", ...); nullptr when the
  /// run's hierarchy has no such level.
  [[nodiscard]] const cache::LevelStats* level(const std::string& name) const;

  [[nodiscard]] double total_energy() const noexcept { return energy.total(); }
  /// Energy per instruction (J) — the paper's EPI metric.
  [[nodiscard]] double epi() const noexcept {
    return instructions == 0
               ? 0.0
               : energy.total() / static_cast<double>(instructions);
  }
  [[nodiscard]] double cpi() const noexcept {
    return instructions == 0
               ? 0.0
               : static_cast<double>(cycles) /
                     static_cast<double>(instructions);
  }
};

/// The core: owns the non-L1 arrays, borrows the memory hierarchy.
class Core {
 public:
  Core(CoreParams params, MemoryPorts ports, power::OperatingPoint op,
       const tech::TechNode& node = tech::node32());

  /// Two-level convenience (L1s straight to memory, no shared levels).
  Core(CoreParams params, cache::Cache& il1, cache::Cache& dl1,
       power::OperatingPoint op, const tech::TechNode& node = tech::node32());

  /// Replays a trace through the pipeline model. Cache stats/energy are
  /// deltas for this run only (internally snapshotted). Records are
  /// pulled from `source` in blocks of `block_records`, so the memory
  /// held during the run is the source's own window plus one block (an
  /// on-disk trace of any length replays in O(1) memory; an in-memory
  /// trace replays through a trace::MemoryTraceSource). The source is
  /// reset() first; replaying the same source twice — or with any other
  /// block size — gives bit-identical results.
  [[nodiscard]] RunResult run(trace::TraceSource& source,
                              std::size_t block_records =
                                  trace::kReplayBlockRecords);

  // --- incremental replay (multi-core interleaving) ---
  // run() is begin_run() + step_batch() per block + finish_run(); a
  // round-robin interleaver (sim::System::run_mix) drives several cores'
  // states through the same per-record step_fast(), so a one-core
  // interleaved run is bit-identical to run().

  /// Mutable state of one in-flight replay.
  struct RunState {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double arrays_dynamic = 0.0;
    double core_dynamic = 0.0;
  };

  /// Clears this core's own L1 stats/energy for a fresh replay and
  /// re-seeds the load-use/redirect Bernoulli stream, so every run starts
  /// at the same RNG phase: back-to-back runs on one System reproduce a
  /// fresh System, and rebuilding cores mid-sequence (mode switches)
  /// cannot silently shift the stream. Shared levels are NOT cleared
  /// here: run() clears them itself, and a multi-core driver clears them
  /// once for all cores.
  void begin_run();

  /// Replays one trace record against the pipeline/energy model, with
  /// the L1 lookups routed through Cache::access_batched (no virtual
  /// dispatch on the hit path). The multi-core interleaver
  /// (sim::System::run_mix) steps this per record so every core keeps
  /// the one-record-per-round order. Defined inline below so that
  /// per-record loop pays no cross-TU call.
  void step_fast(const trace::Record& record, RunState& state);

  /// Replays a block of records through step_fast(). Records are stepped
  /// strictly in order — IL1 and DL1 share the next level and the
  /// Bernoulli stream is consumed per record — so any split of a trace
  /// into blocks gives bit-identical results.
  void step_batch(const trace::Record* records, std::size_t count,
                  RunState& state);

  /// Rolls the finished state up into a RunResult. With `include_shared`
  /// the shared levels' energy/stats are folded in (single-core run());
  /// a multi-core driver passes false and accounts shared levels once.
  [[nodiscard]] RunResult finish_run(const RunState& state,
                                     bool include_shared = true) const;

  [[nodiscard]] const power::OperatingPoint& op() const noexcept {
    return op_;
  }

  /// Static power of core logic + non-L1 arrays (W).
  [[nodiscard]] double core_leakage_w() const noexcept;
  /// Static power of the non-L1 arrays alone (regfile + TLBs), W — the
  /// "arrays.leakage" share of core_leakage_w().
  [[nodiscard]] double arrays_leakage_w() const noexcept;
  /// Static power of the core logic alone, W — the "core.leakage" share.
  [[nodiscard]] double logic_leakage_w() const noexcept {
    return core_leak_w_;
  }

 private:
  /// Per-replay constants, captured by begin_run() (hit latencies depend
  /// on the caches' current mode).
  struct RunConsts {
    double core_energy_per_instr = 0.0;
    double rf_read = 0.0;
    double rf_write = 0.0;
    double tlb_read = 0.0;
    std::size_t il1_hit = 0;
    std::size_t dl1_hit = 0;
  };

  /// Seed of the load-use/redirect Bernoulli stream; begin_run() re-seeds
  /// with it so every replay starts at the same phase.
  static constexpr std::uint64_t kBernoulliSeed = 0xC0DE;

  CoreParams params_;
  MemoryPorts ports_;
  power::OperatingPoint op_;
  const tech::TechNode& node_;
  std::unique_ptr<power::ArrayModel> regfile_;
  std::unique_ptr<power::ArrayModel> itlb_;
  std::unique_ptr<power::ArrayModel> dtlb_;
  double core_leak_w_ = 0.0;
  Rng rng_;
  RunConsts consts_;
};

// Defined here (not in core.cpp) so the replay drivers — Core::run's
// block loop and the multi-core interleaver in sim::System, which steps
// one record per core per round — inline the whole per-record pipeline
// model together with the cache's inline access_batched.
inline void Core::step_fast(const trace::Record& record, RunState& state) {
  cache::Cache& il1_ = *ports_.il1;
  cache::Cache& dl1_ = *ports_.dl1;
  bool hit = false;
  std::uint32_t latency = 0;
  switch (record.kind) {
    case trace::Kind::kIfetch: {
      ++state.instructions;
      ++state.cycles;  // base CPI 1 with pipelined fetch
      il1_.access_batched(record.addr, cache::AccessType::kIfetch, 0, hit,
                          latency);
      if (!hit) {
        state.cycles += latency - consts_.il1_hit;  // miss stall
      }
      state.arrays_dynamic += consts_.tlb_read;  // ITLB lookup
      state.arrays_dynamic +=
          2.0 * consts_.rf_read + consts_.rf_write;  // operand read/writeback
      state.core_dynamic += consts_.core_energy_per_instr;
      break;
    }
    case trace::Kind::kLoad: {
      dl1_.access_batched(record.addr, cache::AccessType::kLoad, 0, hit,
                          latency);
      if (!hit) {
        state.cycles += latency - consts_.dl1_hit;
      }
      // Load-to-use: with probability p the consumer is adjacent and
      // exposes the (hit latency - 1) bubble, including the EDC cycle.
      if (consts_.dl1_hit > 1 &&
          rng_.bernoulli(params_.load_use_adjacent_prob)) {
        state.cycles += consts_.dl1_hit - 1;
      }
      state.arrays_dynamic += consts_.tlb_read;  // DTLB
      break;
    }
    case trace::Kind::kStore: {
      dl1_.access_batched(record.addr, cache::AccessType::kStore, 0, hit,
                          latency);
      if (!hit) {
        state.cycles += latency - consts_.dl1_hit;
      }
      state.arrays_dynamic += consts_.tlb_read;
      break;
    }
    case trace::Kind::kBranch: {
      if (record.taken && consts_.il1_hit > 1 &&
          rng_.bernoulli(params_.redirect_on_taken)) {
        // Fetch redirect: the next fetch waits for the full IL1 hit
        // latency (incl. the EDC cycle) instead of overlapping.
        state.cycles += consts_.il1_hit - 1;
      }
      break;
    }
  }
}

inline void Core::step_batch(const trace::Record* records, std::size_t count,
                             RunState& state) {
  // Strictly in record order: IL1 and DL1 share the next level, and the
  // Bernoulli stream is consumed per load/branch — any per-cache
  // sub-batching would reorder that shared state.
  for (std::size_t i = 0; i < count; ++i) {
    step_fast(records[i], state);
  }
}

}  // namespace hvc::cpu
