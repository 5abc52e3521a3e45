// run_sweep(): the one-call façade over the layered sweep engine.
//
// The engine is four composable layers (each with its own header):
//   planner   PointSource   pulls points lazily in the documented order
//                           (point_source.hpp);
//   scheduler/
//   executor  Executor      thread pool + warm/cold routing + in-order
//                           reorder buffer (executor.hpp);
//   sink      ResultSink    where finished rows go — collect, CSV, JSON,
//                           store commit, tee (sink.hpp);
//   service   serve daemon  long-running Executor shared by socket
//                           clients (service.hpp).
// run_sweep() is the thin composition GridPointSource -> Executor ->
// CollectSink (+ StoreCommitSink with a store) that every pre-existing
// caller keeps using unchanged.
//
// Determinism guarantee: for a fixed spec, run_sweep() produces
// byte-identical CSV/JSON output for ANY thread count. Three mechanisms
// enforce this (details in executor.hpp):
//   1. Points are identified by their index in the documented expansion
//      order, and every stochastic input is derived from that index with
//      the counter-based Rng::stream / Rng::mix64 — never from a stream
//      shared across points.
//   2. Cell plans (the expensive Fig. 2 sizing runs) are keyed by their
//      inputs and computed once per unique key; the sizing loop itself is
//      deterministic and analytic.
//   3. Rows are formatted with fixed locale-free printf formats and
//      emitted in point order, not completion order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "hvc/common/json.hpp"
#include "hvc/explore/spec.hpp"

namespace hvc::store {
class ResultStore;
}

namespace hvc::explore {

struct ExecOptions;

/// The finished sweep: one formatted row per point, in point order.
struct SweepResult {
  std::string name;
  SweepKind kind = SweepKind::kSimulation;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// Memoization outcome when a result store was attached (0/0 without
  /// one): points answered from the store vs. points simulated.
  std::size_t warm_points = 0;
  std::size_t cold_points = 0;

  [[nodiscard]] std::size_t points() const noexcept { return rows.size(); }
  /// Index of a column by name; throws ConfigError when absent.
  [[nodiscard]] std::size_t column(const std::string& name) const;

  /// Header + rows, RFC-4180 quoting, '\n' newlines.
  [[nodiscard]] std::string to_csv() const;
  /// {"name", "kind", "columns", "rows"} with rows as string arrays.
  [[nodiscard]] Json to_json() const;
};

/// Runs every point of the sweep across `threads` workers (1 = inline on
/// the calling thread). Throws ConfigError/PreconditionError on bad specs;
/// any point failure aborts the sweep with that point's exception.
///
/// With a non-null `store`, every point is first looked up by its
/// canonical key (see hvc/explore/result_store.hpp): warm points are
/// answered from the store byte-identically to recomputation, cold points
/// are simulated and committed as they complete — so a killed sweep
/// resumes from its last committed point, and only the cold points pay
/// for Fig. 2 sizing runs. The store must be writable; the caller closes
/// it (clearing the dirty flag) after the sweep.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    std::size_t threads,
                                    store::ResultStore* store = nullptr);

/// As above, with executor options (progress callback, window size).
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    std::size_t threads,
                                    store::ResultStore* store,
                                    const ExecOptions& options);

}  // namespace hvc::explore
