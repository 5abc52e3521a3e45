// Declarative sweep specification for the design-space explorer.
//
// A spec is a JSON document naming the axes of a cartesian sweep over the
// paper's design space. Two kinds exist:
//   "simulation"  — each point builds a sim::System and replays one
//                   workload trace (Fig. 3/4-style rows);
//   "methodology" — each point runs the Fig. 2 sizing loop and reports
//                   cells / Pf / yields / areas (no workload axis).
//
// Example:
//   {
//     "name": "fig3",
//     "kind": "simulation",
//     "seed": 42,
//     "system_seed": 42,
//     "workload_seed": 1,
//     "scale": 1,
//     "target_yield": 0.99,
//     "axes": {
//       "scenario": ["A", "B"],
//       "design": ["baseline", "proposed"],
//       "mode": ["hp"],
//       "workload": ["@big"]
//     }
//   }
//
// Numeric axes (hp_vcc, ule_vcc, scrub_interval_s, l2_size_kb, cores)
// take either an explicit list ([0.3, 0.35]) or an inclusive grid
// ({"from": 0.28, "to": 0.5, "step": 0.02}). The workload axis accepts
// registry names, the classes "@small", "@big" and "@all", and recorded
// traces as "trace:<path>" (.hvct files captured with hvc_trace record;
// streamed from disk per point, so sweeps fan out over recorded — or
// externally captured — traces without re-running codec kernels). The
// hierarchy axes sweep the memory-hierarchy shape: "l2" takes "none" (the
// paper's two-level chip), "baseline" (10T shared L2) or "proposed"
// (8T+EDC shared L2), and "l2_size_kb" its capacity ("none" has no L2 to
// size, so it collapses to a single point however many sizes are listed).
// The multi-core axes: "cores" counts the chip's cores (each with private
// IL1/DL1, sharing the L2 — or the memory port — behind a round-robin
// arbiter), and "workload_mix" lists per-core mixes as '+'-separated
// registry names or trace refs ("gsm_c+trace:gsm.hvct"; core c runs
// entry c mod mix length).
// "workload" and "workload_mix" are mutually exclusive — a simulation
// spec names exactly one of them. Unknown keys anywhere are errors: a
// spec is an experiment record, so typos must not silently change it.
//
// Point order is the documented nested-loop order (scenario, design, l2,
// l2_size_kb, cores, mode, hp_vcc, ule_vcc, workload-or-mix,
// scrub_interval_s — outermost first); a point's index in that order is
// its identity for seeding, so adding threads can never change any
// point's random stream. Defaulted axes (cores [1], no mix) collapse to
// one iteration, so pre-multicore specs keep their exact point indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hvc/common/json.hpp"
#include "hvc/power/cache_power.hpp"
#include "hvc/yield/methodology.hpp"

namespace hvc::explore {

enum class SweepKind {
  kSimulation,   ///< System + workload replay per point
  kMethodology,  ///< Fig. 2 sizing loop per point
};

[[nodiscard]] const char* to_string(SweepKind kind);

/// A parsed, validated sweep: every axis expanded to its concrete values.
struct SweepSpec {
  std::string name = "sweep";
  SweepKind kind = SweepKind::kSimulation;
  /// Base seed for per-point Rng streams (point i uses stream(seed, i)).
  std::uint64_t seed = 42;
  /// When set, every System is built with this exact seed instead of the
  /// per-point derived one — reproduces the fixed-seed bench_fig* rows.
  std::optional<std::uint64_t> system_seed;
  std::uint64_t workload_seed = 1;
  std::size_t scale = 1;
  double target_yield = 0.99;

  // Axis values in spec order. Defaults match the paper's operating point.
  std::vector<yield::Scenario> scenarios{yield::Scenario::kA};
  std::vector<bool> designs{false};       ///< proposed flags
  std::vector<std::string> l2_designs{"none"};  ///< none|baseline|proposed
  std::vector<double> l2_size_kbs{64.0};
  std::vector<std::size_t> cores{1};      ///< cores per chip
  std::vector<power::Mode> modes{power::Mode::kHp};
  std::vector<double> hp_vccs{1.0};
  std::vector<double> ule_vccs{0.35};
  /// Exactly one of these is populated for simulation sweeps: plain
  /// per-point workloads, or '+'-separated per-core mixes.
  std::vector<std::string> workloads;
  std::vector<std::string> workload_mixes;
  std::vector<double> scrub_intervals_s{0.0};  ///< 0 = no scrubbing

  /// Parses and validates a JSON spec document; throws ConfigError with a
  /// helpful message on any problem.
  [[nodiscard]] static SweepSpec from_json(const Json& json);
  [[nodiscard]] static SweepSpec parse(std::string_view text);

  /// Serializes back to JSON (axes in expanded-list form); parse(dump())
  /// reproduces the same sweep.
  [[nodiscard]] Json to_json() const;

  [[nodiscard]] std::size_t point_count() const noexcept;
};

/// One fully-resolved point of the sweep.
struct SweepPoint {
  std::size_t index = 0;  ///< position in documented order == seed stream
  yield::Scenario scenario = yield::Scenario::kA;
  bool proposed = false;
  std::string l2_design = "none";
  double l2_size_kb = 64.0;
  std::size_t cores = 1;
  power::Mode mode = power::Mode::kHp;
  double hp_vcc = 1.0;
  double ule_vcc = 0.35;
  std::string workload;      ///< empty for methodology and mix points
  std::string workload_mix;  ///< '+'-separated; empty for plain points
  double scrub_interval_s = 0.0;

  /// The per-core workload assignment of this point: the mix's names, or
  /// the single workload every core runs.
  [[nodiscard]] std::vector<std::string> core_workloads() const;
};

/// Every point of the sweep in the documented order: a GridPointSource
/// (point_source.hpp) drained into a vector.
[[nodiscard]] std::vector<SweepPoint> expand_points(const SweepSpec& spec);

}  // namespace hvc::explore
