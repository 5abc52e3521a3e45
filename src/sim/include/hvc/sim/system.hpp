// Full-system experiment assembly (paper Section IV).
//
// A System is one simulated chip: IL1 + DL1 hybrid caches built from the
// design-methodology cell plan, an optional shared L2 (HierarchySpec), a
// main memory, and the in-order core.
// Four cache designs exist per the paper:
//   scenario A baseline : 6T        + 10T
//   scenario A proposed : 6T        + 8T+SECDED (SECDED only at ULE)
//   scenario B baseline : 6T+SECDED + 10T+SECDED
//   scenario B proposed : 6T+SECDED + 8T+DECTED (DECTED only at ULE)
// The default organisation is the paper's: 8KB, 8-way, 7+1 way split,
// 32-bit data words, 26-bit tags, 1V/1GHz HP and 350mV/5MHz ULE.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "hvc/cache/arbiter.hpp"
#include "hvc/cache/cache.hpp"
#include "hvc/cache/memory_level.hpp"
#include "hvc/cpu/core.hpp"
#include "hvc/workloads/workload.hpp"
#include "hvc/yield/methodology.hpp"

namespace hvc::sim {

/// Which of the four cache designs to build.
struct DesignChoice {
  yield::Scenario scenario = yield::Scenario::kA;
  bool proposed = false;  ///< false = baseline (10T), true = 8T+EDC

  [[nodiscard]] std::string label() const;
};

/// Optional shared second-level cache between the L1s and main memory.
/// Its ways follow the same hybrid plan as the L1s (6T HP ways plus
/// `ule_ways` always-on ways): `proposed` selects 8T cells with the
/// scenario's stronger EDC at ULE, otherwise fault-free-sized 10T.
struct L2Spec {
  power::CacheOrg org{64 * 1024, 8, 32, 32, 26};
  std::size_t ule_ways = 1;
  bool proposed = false;
  std::size_t hit_latency_cycles = 4;
  /// L2-miss penalty to main memory (replaces the L1's flat memory
  /// latency, which only applies to the two-level shape).
  std::size_t memory_latency_cycles = cache::kPaperMemoryLatencyCycles;
};

/// Shape of the memory hierarchy below the L1s. Default: the paper's
/// two-level IL1+DL1 -> memory chip; with `l2` set, both L1s miss into a
/// shared L2 that misses into memory.
struct HierarchySpec {
  std::optional<L2Spec> l2;

  [[nodiscard]] bool has_l2() const noexcept { return l2.has_value(); }
};

struct SystemConfig {
  DesignChoice design;
  HierarchySpec hierarchy;
  /// Cores on the chip, each with private IL1/DL1. 1 = the paper's chip,
  /// bit-identical to the pre-multicore model; > 1 shares the deepest
  /// levels behind a round-robin, single-port arbiter.
  std::size_t num_cores = 1;
  power::Mode mode = power::Mode::kHp;
  power::CacheOrg org;            ///< defaults: 8KB 8-way 32B lines
  std::size_t ule_ways = 1;       ///< paper: 7+1
  power::OperatingPoint hp{power::Mode::kHp, 1.0, 1e9};
  power::OperatingPoint ule{power::Mode::kUle, 0.35, 5e6};
  cpu::CoreParams core;
  cache::WritePolicy write_policy = cache::WritePolicy::kWriteBackAllocate;
  std::size_t memory_latency_cycles = cache::kPaperMemoryLatencyCycles;
  bool inject_hard_faults = true;
  std::uint64_t seed = 42;
};

/// Builds the per-way plans + fault rates for one design choice.
struct CachePlan {
  std::vector<power::WayPlan> ways;
  std::vector<double> way_hard_pf;
};

[[nodiscard]] CachePlan build_cache_plan(const DesignChoice& design,
                                         const yield::CacheCellPlan& cells,
                                         std::size_t total_ways,
                                         std::size_t ule_ways,
                                         bool inject_hard_faults);

/// Result of one multi-core run: per-core replays plus the chip-level
/// aggregate. Per-core results carry that core's IL1/DL1 only; the shared
/// levels (L2/MEM, with their contention counters) and the
/// "contention.<level>" energy category appear once, in `aggregate`.
/// Aggregate timing: instructions are summed, cycles/seconds take the
/// slowest core (the cores run concurrently), so aggregate EPI is total
/// chip energy over total instructions.
struct MulticoreResult {
  std::vector<cpu::RunResult> per_core;
  std::vector<std::string> core_workloads;  ///< workload run by each core
  cpu::RunResult aggregate;
};

/// Registry-kernel traces generated once per (workload, seed, scale) and
/// shared, immutable, by every replay that asks for the same key. The
/// first caller of a key runs the kernel; concurrent callers of that key
/// wait for it, callers of other keys do not (the cell_plan_for
/// pattern). Nothing is evicted: the sweep engine keeps one memo per
/// run, whose keys its spec bounds (workloads x core positions).
class TraceMemo {
 public:
  /// The trace of kernel `workload` at (seed, scale); throws ConfigError
  /// for an unknown name and InvariantError when its self-check fails.
  [[nodiscard]] const trace::Tracer& get(const std::string& workload,
                                         std::uint64_t seed,
                                         std::size_t scale);

  /// Traces generated so far (one per key).
  [[nodiscard]] std::size_t generated() const noexcept {
    return generated_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::once_flag once;
    trace::Tracer tracer;
  };
  std::mutex mutex_;
  std::map<std::tuple<std::string, std::uint64_t, std::size_t>, Slot> slots_;
  std::atomic<std::size_t> generated_{0};
};

/// One simulated chip instance.
class System {
 public:
  System(const SystemConfig& config, const yield::CacheCellPlan& cells);

  /// Runs a workload by registry name — or a recorded trace named
  /// "trace:<path>" (seed/scale do not apply to recorded traces) — and
  /// returns timing/energy results. Single-core path (replays on core 0;
  /// with num_cores > 1 prefer run_mix, which interleaves all cores).
  /// A kernel's trace comes from `traces` (a memo local to the call when
  /// null); recorded traces stream from disk and are never memoized.
  [[nodiscard]] cpu::RunResult run_workload(const std::string& name,
                                            std::uint64_t seed = 1,
                                            std::size_t scale = 1,
                                            TraceMemo* traces = nullptr);

  /// Replays a trace on core 0 (an already-captured one through a
  /// trace::MemoryTraceSource): records are pulled in blocks of
  /// `block_records` (any block size is bit-identical), so memory stays
  /// bounded by the source's window plus one block for traces of any
  /// length. The source is reset() first.
  [[nodiscard]] cpu::RunResult run_trace(
      trace::TraceSource& source,
      std::size_t block_records = trace::kReplayBlockRecords);

  /// The workload seed of core `core` for a mix run at base `seed`:
  /// core 0 keeps the bare seed (a one-name mix on a one-core chip
  /// reproduces run_workload bit-for-bit); higher cores mix the core id
  /// in with Rng::mix64, so adjacent sweep seeds never replay each
  /// other's per-core streams (seed s core 1 != seed s+1 core 0).
  [[nodiscard]] static std::uint64_t core_workload_seed(
      std::uint64_t seed, std::size_t core) noexcept;

  /// Multi-core run: core c replays `workloads[c % workloads.size()]`
  /// (a registry name seeded core_workload_seed(seed, c), taken from
  /// `traces` like run_workload's, or a "trace:<path>" recorded trace
  /// streamed from disk), stepped by a deterministic round-robin
  /// interleaver whose start core rotates every round — the shared-level
  /// arbiter's priority slot circulates fairly. Works for any num_cores
  /// (num_cores == 1 is bit-identical to run_workload).
  [[nodiscard]] MulticoreResult run_mix(
      const std::vector<std::string>& workloads, std::uint64_t seed = 1,
      std::size_t scale = 1, TraceMemo* traces = nullptr);

  /// The interleaving engine behind run_mix: one already-built trace
  /// source per core, stepped one record per core per round (bounded
  /// memory for N-core mixes of arbitrarily long traces). Each core's
  /// records are pulled from its source in blocks of `block_records`
  /// (amortizing per-record decode/dispatch) but executed strictly in
  /// that record-per-core round order, so every block size retires
  /// records — and drives the shared-level arbiter — bit-identically.
  /// Sources are reset() first; `names` labels
  /// MulticoreResult::core_workloads.
  [[nodiscard]] MulticoreResult run_mix_sources(
      const std::vector<trace::TraceSource*>& sources,
      std::vector<std::string> names = {},
      std::size_t block_records = trace::kReplayBlockRecords);

  /// Switches the whole chip between HP and ULE mode: gates/ungates cache
  /// ways (with the writeback/re-encode costs) and re-points the core at
  /// the new operating point. The energy spent on the transition itself
  /// is accumulated in mode_switch_energy_j().
  void set_mode(power::Mode mode);
  [[nodiscard]] power::Mode mode() const noexcept { return config_.mode; }
  [[nodiscard]] double mode_switch_energy_j() const noexcept {
    return mode_switch_energy_j_;
  }
  [[nodiscard]] std::uint64_t mode_switches() const noexcept {
    return mode_switches_;
  }

  /// Total chip static power at the current mode (caches + core + arrays).
  [[nodiscard]] double chip_leakage_w() const noexcept;

  /// Writes every dirty line back to memory, draining top-down (L1s
  /// first so their victims land in the L2, then the L2 itself).
  void flush();

  [[nodiscard]] std::size_t core_count() const noexcept {
    return cores_.size();
  }
  [[nodiscard]] cache::Cache& il1(std::size_t core = 0) noexcept {
    return *il1s_[core];
  }
  [[nodiscard]] cache::Cache& dl1(std::size_t core = 0) noexcept {
    return *dl1s_[core];
  }
  /// The shared L2, or nullptr for the two-level shape.
  [[nodiscard]] cache::Cache* l2() noexcept { return l2_.get(); }
  [[nodiscard]] bool has_l2() const noexcept { return l2_ != nullptr; }
  /// The shared-level arbiter, or nullptr for single-core chips.
  [[nodiscard]] cache::ArbitratedLevel* arbiter() noexcept {
    return arbiter_.get();
  }
  [[nodiscard]] cpu::Core& core(std::size_t core = 0) noexcept {
    return *cores_[core];
  }
  [[nodiscard]] cache::MainMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

  /// Total L1 area across every core (IL1 + DL1), um^2.
  [[nodiscard]] double l1_area_um2() const noexcept;
  /// Total on-chip cache area including the L2 when present, um^2.
  [[nodiscard]] double cache_area_um2() const noexcept;

 private:
  void rebuild_cores();
  /// The shared levels behind the L1s, in MemoryPorts front-to-back order
  /// (empty for the paper's single-core two-level shape).
  [[nodiscard]] std::vector<cache::MemoryLevel*> shared_levels() noexcept;

  SystemConfig config_;
  cache::MainMemory memory_;
  Rng rng_;
  /// Terminal level behind the deepest cache. Always built: the L2 (or
  /// the L1s directly, two-level shape) misses into it, so every
  /// hierarchy shape ends in one explicit "MEM" level owned here.
  std::unique_ptr<cache::MainMemoryLevel> memory_level_;
  std::unique_ptr<cache::Cache> l2_;
  /// Arbitration around the front shared level (multi-core only).
  std::unique_ptr<cache::ArbitratedLevel> arbiter_;
  std::vector<std::unique_ptr<cache::Cache>> il1s_;
  std::vector<std::unique_ptr<cache::Cache>> dl1s_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
  double mode_switch_energy_j_ = 0.0;
  std::uint64_t mode_switches_ = 0;
};

/// The Fig. 2 sizing plan for one (scenario, hp_vcc, ule_vcc,
/// target_yield), computed on first use and memoized for the life of the
/// process (the sizing loop is deterministic, so one plan serves every
/// bench, test, sweep point and daemon client). Thread-safe: concurrent
/// callers see one shared, immutable plan per key. The defaults are the
/// paper's operating point.
[[nodiscard]] const yield::CacheCellPlan& cell_plan_for(
    yield::Scenario scenario, double hp_vcc = 1.0, double ule_vcc = 0.35,
    double target_yield = 0.99);

/// Convenience: build a system and run one workload.
[[nodiscard]] cpu::RunResult run_one(const SystemConfig& config,
                                     const std::string& workload,
                                     std::uint64_t workload_seed = 1,
                                     std::size_t scale = 1);

}  // namespace hvc::sim
