#include "hvc/explore/executor.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <utility>

#include "hvc/common/io.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/common/thread_pool.hpp"
#include "hvc/edc/code.hpp"
#include "hvc/explore/result_store.hpp"
#include "hvc/sim/report.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/store/store.hpp"
#include "hvc/tech/sram_cell.hpp"
#include "hvc/yield/soft_reliability.hpp"

namespace hvc::explore {

namespace {

/// ULE-way soft-error reliability at one point, from the sized cell and
/// the way's EDC protection (see yield::soft_reliability).
struct UleReliability {
  double rate_per_bit = 0.0;
  double uncorrectable_per_s = 0.0;
  double mttf_s = 0.0;
};

[[nodiscard]] UleReliability ule_reliability(
    const SweepPoint& point, const yield::CacheCellPlan& plan,
    double scrub_interval_s) {
  const bool scenario_b = point.scenario == yield::Scenario::kB;
  const auto& sized = point.proposed ? plan.proposed_8t : plan.baseline_10t;
  edc::Protection protection = edc::Protection::kNone;
  if (point.proposed) {
    protection =
        scenario_b ? edc::Protection::kDected : edc::Protection::kSecded;
  } else if (scenario_b) {
    protection = edc::Protection::kSecded;
  }
  const std::size_t check_bits = edc::check_bits_for(protection);
  const std::size_t bits = 32 + check_bits;
  const std::size_t correctable = protection == edc::Protection::kDected ? 2
                                  : protection == edc::Protection::kSecded
                                      ? 1
                                      : 0;

  UleReliability out;
  out.rate_per_bit =
      tech::soft_error_rate_per_bit(sized.cell, point.ule_vcc);
  if (scrub_interval_s <= 0.0) {
    return out;  // no scrubbing modelled; rate still reported
  }
  // One ULE way of the paper's cache: 256 data words (32 lines x 32B).
  const yield::ArrayGeometry geometry;
  const double words =
      static_cast<double>(geometry.lines * geometry.line_bytes / 4);
  // Split the word population by resident hard faults: a hard fault spends
  // one correction, so those words have one less soft budget (the paper's
  // scenario B argument).
  const double p_word_has_fault =
      1.0 - std::pow(1.0 - sized.pf, static_cast<double>(bits));
  const auto overflow = [&](std::size_t budget) {
    return yield::p_word_overflow(bits, out.rate_per_bit, scrub_interval_s,
                                  budget);
  };
  const double clean_rate =
      words * (1.0 - p_word_has_fault) * overflow(correctable);
  const double faulty_rate =
      words * p_word_has_fault *
      overflow(correctable == 0 ? 0 : correctable - 1);
  out.uncorrectable_per_s =
      (clean_rate + faulty_rate) / scrub_interval_s;
  out.mttf_s = out.uncorrectable_per_s > 0.0
                   ? 1.0 / out.uncorrectable_per_s
                   : std::numeric_limits<double>::infinity();
  return out;
}

[[nodiscard]] std::vector<std::string> simulation_columns() {
  return {
      "point",          "scenario",        "design",
      "l2",             "l2_size_kb",      "cores",
      "mode",           "workload",        "workload_mix",
      "hp_vcc",         "ule_vcc",
      "scrub_interval_s", "instructions",  "cycles",
      "cpi",            "seconds",         "epi_j",
      "epi_l1_dynamic_j", "epi_l1_leakage_j", "epi_l1_edc_j",
      "epi_l2_j",       "epi_contention_j", "epi_core_other_j",
      "total_energy_j",
      "il1_hit_rate",   "dl1_hit_rate",    "l2_hit_rate",
      "l2_accesses",    "mem_accesses",    "contended_requests",
      "contention_cycles", "edc_corrections",
      "edc_detected",   "l1_area_um2",     "cache_area_um2",
      "ule_soft_rate_per_bit", "ule_uncorr_per_s", "ule_mttf_s",
  };
}

[[nodiscard]] std::vector<std::string> methodology_columns() {
  return {
      "point",         "scenario",      "hp_vcc",
      "ule_vcc",       "target_yield",  "target_pf",
      "hp6t_size",     "hp6t_pf",       "b10t_size",
      "b10t_pf",       "b10t_yield",    "p8t_size",
      "p8t_pf",        "p8t_yield",     "b10t_area_f2",
      "p8t_area_f2",   "area_ratio",
  };
}

[[nodiscard]] std::vector<std::string> simulate_point(
    const SweepSpec& spec, const SweepPoint& point,
    const yield::CacheCellPlan& plan, sim::TraceMemo& traces) {
  sim::SystemConfig config;
  config.design.scenario = point.scenario;
  config.design.proposed = point.proposed;
  config.mode = point.mode;
  config.hp.vcc = point.hp_vcc;
  config.ule.vcc = point.ule_vcc;
  const bool with_l2 = point.l2_design != "none";
  if (with_l2) {
    sim::L2Spec l2;
    l2.org.size_bytes =
        static_cast<std::size_t>(point.l2_size_kb) * std::size_t{1024};
    l2.proposed = point.l2_design == "proposed";
    config.hierarchy.l2 = l2;
  }
  config.num_cores = point.cores;
  // The System's fault maps draw from the point's own counter-based seed
  // (or the spec's fixed one, for pinning against the bench_fig* rows).
  config.seed = spec.system_seed ? *spec.system_seed
                                 : Rng::mix64(spec.seed, point.index);

  sim::System system(config, plan);
  // Plain one-core points keep the exact pre-multicore evaluation path;
  // core-count/mix points report the interleaved run's chip aggregate.
  const bool multicore = point.cores > 1 || !point.workload_mix.empty();
  const cpu::RunResult result =
      multicore ? system
                      .run_mix(point.core_workloads(), spec.workload_seed,
                               spec.scale, &traces)
                      .aggregate
                : system.run_workload(point.workload, spec.workload_seed,
                                      spec.scale, &traces);
  const sim::EpiBreakdown epi = sim::epi_breakdown(result);
  const UleReliability reliability =
      ule_reliability(point, plan, point.scrub_interval_s);
  const cache::LevelStats* l2_stats = result.level("L2");
  const cache::LevelStats* mem_stats = result.level("MEM");

  std::vector<std::string> row;
  row.reserve(simulation_columns().size());
  row.push_back(format_number(static_cast<std::uint64_t>(point.index)));
  row.emplace_back(yield::to_string(point.scenario));
  row.emplace_back(point.proposed ? "proposed" : "baseline");
  row.push_back(point.l2_design);
  if (with_l2) {
    row.push_back(format_number(point.l2_size_kb));
  } else {
    row.emplace_back("");
  }
  row.push_back(
      format_number(static_cast<std::uint64_t>(point.cores)));
  row.emplace_back(point.mode == power::Mode::kHp ? "hp" : "ule");
  row.push_back(point.workload);
  row.push_back(point.workload_mix);
  row.push_back(format_number(point.hp_vcc));
  row.push_back(format_number(point.ule_vcc));
  row.push_back(format_number(point.scrub_interval_s));
  row.push_back(format_number(result.instructions));
  row.push_back(format_number(result.cycles));
  row.push_back(format_number(result.cpi()));
  row.push_back(format_number(result.seconds));
  row.push_back(format_number(result.epi()));
  row.push_back(format_number(epi.l1_dynamic));
  row.push_back(format_number(epi.l1_leakage));
  row.push_back(format_number(epi.l1_edc));
  row.push_back(format_number(epi.l2));
  row.push_back(format_number(epi.contention));
  row.push_back(format_number(epi.core_other));
  row.push_back(format_number(result.total_energy()));
  row.push_back(format_number(result.il1.hit_rate()));
  row.push_back(format_number(result.dl1.hit_rate()));
  if (l2_stats != nullptr) {
    row.push_back(format_number(l2_stats->hit_rate()));
    row.push_back(format_number(l2_stats->accesses));
  } else {
    row.emplace_back("");
    row.emplace_back("");
  }
  if (mem_stats != nullptr) {
    row.push_back(format_number(mem_stats->accesses));
  } else {
    row.emplace_back("");
  }
  // Arbitration pressure on the shared level (zero rows for single-core
  // points, where no arbiter exists).
  std::uint64_t contended_requests = 0;
  std::uint64_t contention_cycles = 0;
  for (const cache::LevelStats& level : result.levels) {
    contended_requests += level.contended_requests;
    contention_cycles += level.contention_cycles;
  }
  row.push_back(format_number(contended_requests));
  row.push_back(format_number(contention_cycles));
  std::uint64_t edc_corrections =
      result.il1.edc_corrections + result.dl1.edc_corrections;
  std::uint64_t edc_detected =
      result.il1.edc_detected + result.dl1.edc_detected;
  if (l2_stats != nullptr) {
    edc_corrections += l2_stats->edc_corrections;
    edc_detected += l2_stats->edc_detected;
  }
  row.push_back(format_number(edc_corrections));
  row.push_back(format_number(edc_detected));
  row.push_back(format_number(system.l1_area_um2()));
  row.push_back(format_number(system.cache_area_um2()));
  row.push_back(format_number(reliability.rate_per_bit));
  if (point.scrub_interval_s > 0.0) {
    row.push_back(format_number(reliability.uncorrectable_per_s));
    row.push_back(format_number(reliability.mttf_s));
  } else {
    row.emplace_back("");
    row.emplace_back("");
  }
  return row;
}

[[nodiscard]] std::vector<std::string> methodology_point(
    const SweepSpec& spec, const SweepPoint& point,
    const yield::CacheCellPlan& plan) {
  const double area_10t = tech::cell_area_f2(plan.baseline_10t.cell);
  const double area_8t = tech::cell_area_f2(plan.proposed_8t.cell);
  // Proposed/baseline ULE-way array area including check bits, as in the
  // paper's area discussion: scenario A stores 39 vs 32 bits per word,
  // scenario B 45 vs 39.
  const double check_factor =
      point.scenario == yield::Scenario::kA ? 39.0 / 32.0 : 45.0 / 39.0;

  std::vector<std::string> row;
  row.reserve(methodology_columns().size());
  row.push_back(format_number(static_cast<std::uint64_t>(point.index)));
  row.emplace_back(yield::to_string(point.scenario));
  row.push_back(format_number(point.hp_vcc));
  row.push_back(format_number(point.ule_vcc));
  row.push_back(format_number(spec.target_yield));
  row.push_back(format_number(plan.target_pf));
  row.push_back(format_number(plan.hp_6t.cell.size));
  row.push_back(format_number(plan.hp_6t.pf));
  row.push_back(format_number(plan.baseline_10t.cell.size));
  row.push_back(format_number(plan.baseline_10t.pf));
  row.push_back(format_number(plan.baseline_10t.yield));
  row.push_back(format_number(plan.proposed_8t.cell.size));
  row.push_back(format_number(plan.proposed_8t.pf));
  row.push_back(format_number(plan.proposed_8t.yield));
  row.push_back(format_number(area_10t));
  row.push_back(format_number(area_8t));
  row.push_back(format_number(area_8t * check_factor / area_10t));
  return row;
}

}  // namespace

std::vector<std::string> sweep_columns(SweepKind kind) {
  return kind == SweepKind::kSimulation ? simulation_columns()
                                        : methodology_columns();
}

/// Book-keeping of one run() call. Workers deposit finished rows keyed
/// by their pull sequence; the coordinating thread (the run() caller)
/// emits the contiguous prefix, so sinks see source order, serialized.
struct Executor::RunState {
  struct Finished {
    SweepPoint point;
    std::vector<std::string> cells;
    bool warm = false;
  };

  std::mutex mutex;
  std::condition_variable ready;
  std::map<std::size_t, Finished> done;  ///< reorder buffer, seq-keyed
  std::size_t next_emit = 0;
  std::size_t outstanding = 0;  ///< pool tasks submitted, not finished
  std::exception_ptr error;     ///< first point failure
  bool cancelled = false;       ///< set by Executor::cancel()
  /// The run's workload traces, one generation per key; they go with
  /// the run, so a long-lived executor holds none between runs.
  sim::TraceMemo traces;
};

Executor::Executor(std::size_t threads)
    : threads_(std::max<std::size_t>(threads, 1)) {
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
}

Executor::~Executor() = default;

void Executor::cancel() noexcept {
  std::lock_guard<std::mutex> runs_lock(runs_mutex_);
  cancelled_ = true;
  for (const auto& state : runs_) {
    std::lock_guard<std::mutex> state_lock(state->mutex);
    state->cancelled = true;
    state->ready.notify_all();
  }
}

bool Executor::cancelled() const noexcept {
  std::lock_guard<std::mutex> runs_lock(runs_mutex_);
  return cancelled_;
}

void Executor::evaluate_into(const SweepSpec& spec, const SweepPoint& point,
                             std::size_t seq,
                             const std::shared_ptr<RunState>& state) {
  std::vector<std::string> cells;
  std::exception_ptr failure;
  try {
    const yield::CacheCellPlan& plan = sim::cell_plan_for(
        point.scenario, point.hp_vcc, point.ule_vcc, spec.target_yield);
    cells = spec.kind == SweepKind::kSimulation
                ? simulate_point(spec, point, plan, state->traces)
                : methodology_point(spec, point, plan);
  } catch (...) {
    failure = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(state->mutex);
  if (failure) {
    if (!state->error) {
      state->error = failure;
    }
  } else {
    state->done.emplace(
        seq, RunState::Finished{point, std::move(cells), false});
  }
  state->ready.notify_all();
}

ExecStats Executor::run(const SweepSpec& spec, PointSource& source,
                        ResultSink& sink, store::ResultStore* store,
                        const ExecOptions& options) {
  const std::vector<std::string> columns = sweep_columns(spec.kind);
  auto state = std::make_shared<RunState>();
  {
    std::lock_guard<std::mutex> runs_lock(runs_mutex_);
    if (cancelled_) {
      throw SweepCancelled();
    }
    runs_.push_back(state);
  }
  // Deregister on every exit path; run() never returns with tasks of
  // this run still on the pool (drain below), so the state can go.
  struct Deregister {
    Executor* executor;
    RunState* state;
    ~Deregister() {
      std::lock_guard<std::mutex> runs_lock(executor->runs_mutex_);
      auto& runs = executor->runs_;
      for (auto it = runs.begin(); it != runs.end(); ++it) {
        if (it->get() == state) {
          runs.erase(it);
          break;
        }
      }
    }
  } deregister{this, state.get()};

  // Blocks until every already-submitted task of this run left the pool,
  // so a failed run cannot leak workers touching freed spec/state.
  const auto drain = [&state](std::unique_lock<std::mutex>& lock) {
    state->ready.wait(lock, [&state] { return state->outstanding == 0; });
  };

  // Anything below may throw — a point failure, a cancelled run, or the
  // sink itself (a daemon client hanging up mid-stream). Whatever the
  // exit path, never leave this frame with tasks of this run still
  // running: they hold references into it. Marking the run cancelled
  // makes stragglers no-op and drain fast; on a normal return there is
  // nothing left to wait for.
  struct DrainOnExit {
    RunState* state;
    ~DrainOnExit() {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->cancelled = true;
      state->ready.wait(lock, [this] { return state->outstanding == 0; });
    }
  } drain_on_exit{state.get()};

  sink.begin(spec, columns);

  const std::size_t window =
      options.window != 0 ? options.window
                          : std::max<std::size_t>(64, 8 * threads_);
  ExecStats stats;
  std::size_t seq = 0;      // next pull sequence to assign
  std::size_t emitted = 0;  // rows already pushed to the sink
  std::vector<SweepPoint> batch;

  for (;;) {
    // Emit whatever contiguous prefix of rows is finished.
    bool progressed = false;
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      for (;;) {
        auto it = state->done.find(state->next_emit);
        if (it == state->done.end()) {
          break;
        }
        RunState::Finished finished = std::move(it->second);
        state->done.erase(it);
        ++state->next_emit;
        lock.unlock();
        sink.row(emitted, finished.point, finished.cells, finished.warm);
        ++(finished.warm ? stats.warm : stats.cold);
        ++emitted;
        progressed = true;
        lock.lock();
      }
      if (state->error) {
        drain(lock);
        std::rethrow_exception(state->error);
      }
      if (state->cancelled) {
        drain(lock);
        throw SweepCancelled();
      }
    }
    if (progressed && options.progress) {
      // total = emitted + in flight + still unpulled (exact for grids).
      options.progress({emitted, seq + source.estimated_remaining(),
                        stats.warm, stats.cold});
    }

    const std::size_t in_flight = seq - emitted;
    if (!source.done() && in_flight < window) {
      // Pull the next slice of the plan and dispatch it. Capped per
      // iteration so emission interleaves with pulling.
      batch.clear();
      source.next_batch(std::min<std::size_t>(window - in_flight, 64),
                        batch);
      for (SweepPoint& point : batch) {
        const std::size_t this_seq = seq++;
        if (store != nullptr) {
          const store::Key key = result_key(spec, point, columns);
          if (const auto payload = store->get(key)) {
            std::vector<std::string> cells =
                decode_row(payload->data(), payload->size());
            if (cells.size() + 1 != columns.size()) {
              throw ConfigError(
                  "stored row width does not match the sweep schema");
            }
            std::vector<std::string> row;
            row.reserve(columns.size());
            row.push_back(
                format_number(static_cast<std::uint64_t>(point.index)));
            for (auto& cell : cells) {
              row.push_back(std::move(cell));
            }
            std::lock_guard<std::mutex> lock(state->mutex);
            state->done.emplace(
                this_seq,
                RunState::Finished{point, std::move(row), true});
            continue;
          }
        }
        if (pool_ == nullptr) {
          evaluate_into(spec, point, this_seq, state);
          continue;
        }
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          ++state->outstanding;
        }
        pool_->submit([this, &spec, point = std::move(point), this_seq,
                       state] {
          bool abort = false;
          {
            std::lock_guard<std::mutex> lock(state->mutex);
            abort = state->error != nullptr || state->cancelled;
          }
          if (!abort) {
            evaluate_into(spec, point, this_seq, state);
          }
          std::lock_guard<std::mutex> lock(state->mutex);
          --state->outstanding;
          state->ready.notify_all();
        });
      }
      continue;  // emit what is already finished before pulling more
    }

    if (source.done() && emitted == seq) {
      break;  // every pulled point emitted, plan exhausted
    }

    // Window full or plan exhausted with rows in flight: sleep until the
    // next emittable row lands (or the run fails / is cancelled).
    std::unique_lock<std::mutex> lock(state->mutex);
    state->ready.wait(lock, [&state] {
      return state->done.count(state->next_emit) != 0 ||
             state->error != nullptr || state->cancelled;
    });
  }

  sink.end();
  stats.points = emitted;
  stats.traces_generated = state->traces.generated();
  return stats;
}

}  // namespace hvc::explore
