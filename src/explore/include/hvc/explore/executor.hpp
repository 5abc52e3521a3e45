// Scheduler/executor layer of the sweep engine.
//
// An Executor owns the worker threads. It pulls points from a
// PointSource a window at a time, answers warm points straight from an
// attached result store, evaluates cold points on the pool (their Fig. 2
// sizing runs come from sim::cell_plan_for, keyed by their inputs and
// computed once each per process; their workload traces from a
// sim::TraceMemo owned by the run, generated once each per run), and
// pushes finished rows into a ResultSink in source order — whatever
// order workers finish in.
//
// Determinism guarantee (unchanged from the monolithic engine): for a
// fixed spec the emitted rows are byte-identical at ANY thread count.
//   1. A point's identity is its index from the source; every stochastic
//      input derives from that index via counter-based Rng::mix64, never
//      from a stream shared across points.
//   2. Cell plans and workload traces are keyed by their inputs; sizing
//      and kernel generation are deterministic, so lazy memoization
//      cannot change them.
//   3. Rows are formatted locale-free and emitted through a reorder
//      buffer in source order, so sinks never see completion order (and
//      never see concurrent calls — sinks need no locking).
//
// One Executor may serve many concurrent run() calls (the serve daemon
// shares one pool across clients); each run tracks its own completion,
// so runs never observe each other beyond sharing CPU.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/explore/point_source.hpp"
#include "hvc/explore/sink.hpp"
#include "hvc/explore/spec.hpp"

namespace hvc {
class ThreadPool;
}
namespace hvc::store {
class ResultStore;
}

namespace hvc::explore {

/// The column list of a sweep of the given kind (leading positional
/// "point" column first).
[[nodiscard]] std::vector<std::string> sweep_columns(SweepKind kind);

/// Thrown out of Executor::run when cancel() interrupts it (the serve
/// daemon's SIGTERM path). A ConfigError so existing catch sites treat
/// it as a recoverable failure.
class SweepCancelled : public ConfigError {
 public:
  SweepCancelled() : ConfigError("sweep cancelled by shutdown") {}
};

/// Snapshot handed to the progress callback after rows are emitted.
/// `total` is emitted + in-flight + the source's estimate, so it is
/// exact for grid/list sources. warm/cold count emitted rows only.
struct SweepProgress {
  std::size_t done = 0;
  std::size_t total = 0;
  std::size_t warm = 0;
  std::size_t cold = 0;
};

struct ExecOptions {
  /// Invoked (on the coordinating thread, serialized with sink calls)
  /// whenever newly finished rows were emitted. Throttling is the
  /// callback's business.
  std::function<void(const SweepProgress&)> progress;
  /// Max points pulled-but-not-yet-emitted; bounds memory on huge lazy
  /// grids. 0 picks max(64, 8 * threads).
  std::size_t window = 0;
};

/// What one run() did.
struct ExecStats {
  std::size_t points = 0;
  std::size_t warm = 0;  ///< answered from the store
  std::size_t cold = 0;  ///< simulated
  /// Kernel traces the run generated: one per (workload, per-core seed,
  /// scale) its cold points replay, however many points share it.
  std::size_t traces_generated = 0;
};

class Executor {
 public:
  /// Spawns `threads` workers. 1 means fully inline execution on the
  /// calling thread (no pool) — the reference baseline.
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Drains `source` into `sink`: pulls points, answers warm ones from
  /// `store` (when non-null), evaluates cold ones on the pool, emits
  /// rows in source order. Blocking; safe to call from several threads
  /// at once. Throws the first point failure (sink.end() is then never
  /// called), or SweepCancelled when cancel() interrupts the run.
  /// Committing cold rows back to a store is a sink's job
  /// (StoreCommitSink), not the executor's.
  ExecStats run(const SweepSpec& spec, PointSource& source, ResultSink& sink,
                store::ResultStore* store = nullptr,
                const ExecOptions& options = {});

  /// Aborts every in-flight and future run() with SweepCancelled.
  /// Idempotent; used by the daemon's shutdown path.
  void cancel() noexcept;
  [[nodiscard]] bool cancelled() const noexcept;

 private:
  struct RunState;

  void evaluate_into(const SweepSpec& spec, const SweepPoint& point,
                     std::size_t seq, const std::shared_ptr<RunState>& state);

  std::size_t threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  ///< null when threads_ == 1

  mutable std::mutex runs_mutex_;
  std::vector<std::shared_ptr<RunState>> runs_;  ///< active runs
  bool cancelled_ = false;
};

}  // namespace hvc::explore
