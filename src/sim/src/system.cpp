#include "hvc/sim/system.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <mutex>
#include <tuple>

#include "hvc/common/error.hpp"
#include "hvc/trace/trace_file.hpp"

namespace hvc::sim {

namespace {

void accumulate_cache_stats(cache::CacheStats& into,
                            const cache::CacheStats& from) {
  into.accesses += from.accesses;
  into.hits += from.hits;
  into.misses += from.misses;
  into.loads += from.loads;
  into.stores += from.stores;
  into.ifetches += from.ifetches;
  into.fills += from.fills;
  into.writebacks += from.writebacks;
  into.edc_corrections += from.edc_corrections;
  into.edc_detected += from.edc_detected;
  into.mode_switch_writebacks += from.mode_switch_writebacks;
  into.soft_errors_injected += from.soft_errors_injected;
}

}  // namespace

std::string DesignChoice::label() const {
  std::string out = "scenario";
  out += yield::to_string(scenario);
  out += proposed ? "/proposed" : "/baseline";
  return out;
}

CachePlan build_cache_plan(const DesignChoice& design,
                           const yield::CacheCellPlan& cells,
                           std::size_t total_ways, std::size_t ule_ways,
                           bool inject_hard_faults) {
  expects(ule_ways >= 1 && ule_ways < total_ways,
          "need at least one ULE way and one HP way");
  CachePlan plan;
  plan.ways.resize(total_ways);
  plan.way_hard_pf.assign(total_ways, 0.0);

  const bool scenario_b = design.scenario == yield::Scenario::kB;
  const edc::Protection hp_ways_protection =
      scenario_b ? edc::Protection::kSecded : edc::Protection::kNone;

  for (std::size_t w = 0; w < total_ways; ++w) {
    const bool is_ule = w >= total_ways - ule_ways;
    power::WayPlan& way = plan.ways[w];
    way.ule_way = is_ule;
    if (!is_ule) {
      // HP way: 6T cells, gated off at ULE.
      way.cell = cells.hp_6t.cell;
      way.hp_protection = hp_ways_protection;
      way.ule_protection = hp_ways_protection;
      continue;
    }
    if (!design.proposed) {
      // Baseline ULE way: 10T sized for fault-free NST operation.
      way.cell = cells.baseline_10t.cell;
      way.hp_protection = hp_ways_protection;
      way.ule_protection = hp_ways_protection;
      if (inject_hard_faults) {
        plan.way_hard_pf[w] = cells.baseline_10t.pf;
      }
    } else {
      // Proposed ULE way: smaller 8T with the stronger code at ULE only.
      way.cell = cells.proposed_8t.cell;
      way.hp_protection = hp_ways_protection;
      way.ule_protection = scenario_b ? edc::Protection::kDected
                                      : edc::Protection::kSecded;
      if (inject_hard_faults) {
        plan.way_hard_pf[w] = cells.proposed_8t.pf;
      }
    }
  }
  return plan;
}

System::System(const SystemConfig& config, const yield::CacheCellPlan& cells)
    : config_(config), rng_(config.seed) {
  expects(config_.num_cores >= 1, "a System needs at least one core");
  const bool multicore = config_.num_cores > 1;
  if (config_.hierarchy.has_l2()) {
    const L2Spec& l2 = *config_.hierarchy.l2;
    expects(l2.org.line_bytes >= config_.org.line_bytes &&
                l2.org.line_bytes % config_.org.line_bytes == 0,
            "L2 lines must cover whole L1 lines");
    memory_level_ = std::make_unique<cache::MainMemoryLevel>(
        memory_, l2.memory_latency_cycles);
    const CachePlan l2_plan = build_cache_plan(
        {config_.design.scenario, l2.proposed}, cells, l2.org.ways,
        l2.ule_ways, config_.inject_hard_faults);
    cache::CacheConfig cc;
    cc.name = "L2";
    cc.org = l2.org;
    cc.ways = l2_plan.ways;
    cc.way_hard_pf = l2_plan.way_hard_pf;
    cc.write_policy = config_.write_policy;
    cc.hit_latency_cycles = l2.hit_latency_cycles;
    cc.hp = config_.hp;
    cc.ule = config_.ule;
    cc.fault_seed = config_.seed ^ 0x22;
    l2_ = std::make_unique<cache::Cache>(cc, *memory_level_, rng_);
  } else {
    // L2-less chip: the private L1s miss into one shared memory terminal
    // (multi-core chips additionally contend for its port).
    memory_level_ = std::make_unique<cache::MainMemoryLevel>(
        memory_, config_.memory_latency_cycles);
  }

  if (multicore) {
    const power::OperatingPoint& op =
        config_.mode == power::Mode::kHp ? config_.hp : config_.ule;
    cache::MemoryLevel& front =
        l2_ ? static_cast<cache::MemoryLevel&>(*l2_) : *memory_level_;
    arbiter_ = std::make_unique<cache::ArbitratedLevel>(
        front, config_.num_cores, op.vcc);
  }

  const CachePlan plan =
      build_cache_plan(config_.design, cells, config_.org.ways,
                       config_.ule_ways, config_.inject_hard_faults);

  const auto make_cache = [&](const std::string& name, std::uint64_t salt) {
    cache::CacheConfig cc;
    cc.name = name;
    cc.org = config_.org;
    cc.ways = plan.ways;
    cc.way_hard_pf = plan.way_hard_pf;
    cc.write_policy = config_.write_policy;
    cc.hp = config_.hp;
    cc.ule = config_.ule;
    cc.fault_seed = config_.seed ^ salt;
    if (arbiter_) {
      return std::make_unique<cache::Cache>(cc, *arbiter_, rng_);
    }
    // Two-level shape: miss straight into the shared memory terminal.
    return l2_ ? std::make_unique<cache::Cache>(cc, *l2_, rng_)
               : std::make_unique<cache::Cache>(cc, *memory_level_, rng_);
  };
  // Per-core fault-map salts: core 0 keeps the pre-multicore 0x11/0xDD so
  // one-core chips are bit-identical; higher cores shift into disjoint
  // ranges (0x11/0xDD + c*256 never collide with each other or 0x22).
  for (std::size_t c = 0; c < config_.num_cores; ++c) {
    const std::uint64_t core_salt = static_cast<std::uint64_t>(c) << 8;
    il1s_.push_back(make_cache("IL1", 0x11 + core_salt));
    dl1s_.push_back(make_cache("DL1", 0xDD + core_salt));
  }

  for (std::size_t c = 0; c < config_.num_cores; ++c) {
    il1s_[c]->set_mode(config_.mode);
    dl1s_[c]->set_mode(config_.mode);
  }
  if (l2_) {
    l2_->set_mode(config_.mode);
  }
  rebuild_cores();
}

std::vector<cache::MemoryLevel*> System::shared_levels() noexcept {
  std::vector<cache::MemoryLevel*> levels;
  if (arbiter_) {
    // The arbiter fronts the L2 (or the memory terminal when no L2) and
    // reports that level's stats plus contention counters.
    levels.push_back(arbiter_.get());
    if (l2_) {
      levels.push_back(memory_level_.get());
    }
  } else if (l2_) {
    levels.push_back(l2_.get());
    levels.push_back(memory_level_.get());
  } else {
    // Two-level single-core shape: the terminal both L1s miss into is
    // the only shared level, so every hierarchy reports a "MEM" row.
    levels.push_back(memory_level_.get());
  }
  return levels;
}

void System::rebuild_cores() {
  const power::OperatingPoint op =
      config_.mode == power::Mode::kHp ? config_.hp : config_.ule;
  cores_.clear();
  for (std::size_t c = 0; c < config_.num_cores; ++c) {
    cpu::MemoryPorts ports;
    ports.il1 = il1s_[c].get();
    ports.dl1 = dl1s_[c].get();
    ports.shared = shared_levels();
    cores_.push_back(
        std::make_unique<cpu::Core>(config_.core, std::move(ports), op));
  }
}

void System::set_mode(power::Mode mode) {
  if (mode == config_.mode) {
    return;
  }
  // Capture the transition's cache energy (writebacks + re-encode scrub).
  // Top-down: every core's L1s drain first so their dirty victims land in
  // the L2, then the L2 drains into memory.
  const auto for_each_cache = [this](auto&& fn) {
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      fn(*il1s_[c]);
      fn(*dl1s_[c]);
    }
    if (l2_) {
      fn(*l2_);
    }
  };
  for_each_cache([](cache::Cache& c) { c.clear_energy(); });
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    il1s_[c]->set_mode(mode);
    dl1s_[c]->set_mode(mode);
  }
  if (l2_) {
    l2_->set_mode(mode);
  }
  double transition_j = 0.0;
  for_each_cache(
      [&transition_j](cache::Cache& c) { transition_j += c.total_energy_j(); });
  mode_switch_energy_j_ += transition_j;
  for_each_cache([](cache::Cache& c) { c.clear_energy(); });
  config_.mode = mode;
  if (arbiter_) {
    arbiter_->set_vcc(
        (mode == power::Mode::kHp ? config_.hp : config_.ule).vcc);
  }
  ++mode_switches_;
  rebuild_cores();
}

void System::flush() {
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    il1s_[c]->flush();
    dl1s_[c]->flush();
  }
  if (l2_) {
    l2_->flush();
  }
}

double System::chip_leakage_w() const noexcept {
  double leak = l2_ ? l2_->leakage_power() : 0.0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    leak += il1s_[c]->leakage_power() + dl1s_[c]->leakage_power() +
            cores_[c]->core_leakage_w();
  }
  return leak;
}

const trace::Tracer& TraceMemo::get(const std::string& workload,
                                    std::uint64_t seed, std::size_t scale) {
  // Map nodes never move, so the lock only covers the lookup.
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot = &slots_[{workload, seed, scale}];
  }
  std::call_once(slot->once, [&] {
    wl::WorkloadResult result = wl::find_workload(workload).run(seed, scale);
    ensure(result.self_check, "workload self-check failed: " + workload);
    slot->tracer = std::move(result.tracer);
    generated_.fetch_add(1, std::memory_order_relaxed);
  });
  return slot->tracer;
}

cpu::RunResult System::run_workload(const std::string& name,
                                    std::uint64_t seed, std::size_t scale,
                                    TraceMemo* traces) {
  if (trace::is_trace_ref(name)) {
    trace::TraceFileSource source(trace::trace_ref_path(name));
    return run_trace(source);
  }
  TraceMemo local;
  trace::MemoryTraceSource source(
      (traces != nullptr ? *traces : local).get(name, seed, scale));
  return run_trace(source);
}

cpu::RunResult System::run_trace(trace::TraceSource& source,
                                 std::size_t block_records) {
  return cores_[0]->run(source, block_records);
}

std::uint64_t System::core_workload_seed(std::uint64_t seed,
                                         std::size_t core) noexcept {
  // Core 0 keeps the bare seed for bit-compatibility with run_workload.
  // Higher cores MIX the core id in instead of adding it: `seed + c`
  // would make core 1 at seed s replay core 0's stream at seed s+1 —
  // correlated streams across adjacent sweep seeds.
  return core == 0 ? seed : Rng::mix64(seed, core);
}

MulticoreResult System::run_mix(const std::vector<std::string>& workloads,
                                std::uint64_t seed, std::size_t scale,
                                TraceMemo* traces) {
  expects(!workloads.empty(), "run_mix needs at least one workload");
  const std::size_t n = cores_.size();
  TraceMemo local;
  TraceMemo& memo = traces != nullptr ? *traces : local;

  std::vector<std::string> names;
  names.reserve(n);
  std::vector<std::unique_ptr<trace::TraceSource>> owned;
  owned.reserve(n);
  std::vector<trace::TraceSource*> sources;
  sources.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    const std::string& name = workloads[c % workloads.size()];
    if (trace::is_trace_ref(name)) {
      // Recorded trace streamed from disk: every core gets its own
      // bounded read window, so N-core mixes of arbitrarily long traces
      // never materialize a record vector.
      owned.push_back(std::make_unique<trace::TraceFileSource>(
          trace::trace_ref_path(name)));
    } else {
      owned.push_back(std::make_unique<trace::MemoryTraceSource>(
          memo.get(name, core_workload_seed(seed, c), scale)));
    }
    sources.push_back(owned.back().get());
    names.push_back(name);
  }
  return run_mix_sources(sources, std::move(names));
}

MulticoreResult System::run_mix_sources(
    const std::vector<trace::TraceSource*>& sources,
    std::vector<std::string> names, std::size_t block_records) {
  const std::size_t n = cores_.size();
  expects(block_records > 0, "block_records must be at least 1");
  expects(sources.size() == n, "run_mix needs one trace source per core");
  expects(names.empty() || names.size() == n,
          "per-core names must match the core count");

  MulticoreResult out;
  out.core_workloads = std::move(names);

  for (trace::TraceSource* source : sources) {
    expects(source != nullptr, "null trace source");
    source->reset();
  }
  // Shared levels are cleared once for the whole mix (the arbiter clears
  // its contention counters and the level it fronts together).
  for (cache::MemoryLevel* level : shared_levels()) {
    level->clear_level_counters();
  }
  for (std::size_t c = 0; c < n; ++c) {
    cores_[c]->begin_run();
  }

  // Deterministic round-robin interleaver: one record stepped per core
  // per round, with the start core rotating so the arbiter's uncontended
  // priority slot circulates (round-robin arbitration fairness). An
  // empty pull retires a core; the loop ends when every source is dry.
  std::vector<cpu::Core::RunState> states(n);
  std::vector<char> done(n, 0);
  std::size_t active = n;
  // Hot-loop handles, hoisted: the arbiter as a raw pointer (one null
  // test per record instead of a unique_ptr deref) and the cores as a
  // flat pointer array (skips the unique_ptr indirection per step).
  cache::ArbitratedLevel* const arb = arbiter_.get();
  std::vector<cpu::Core*> cores(n);
  for (std::size_t c = 0; c < n; ++c) {
    cores[c] = cores_[c].get();
  }
  // Rotating start core, tracked incrementally: `(round + k) % n` with a
  // runtime n would put an integer divide on every record.
  std::size_t start = 0;
  // Each core refills a private record buffer through next_batch()
  // (amortized decode, no per-record virtual dispatch), but execution
  // stays round-major with one record per core per round, so shared-level
  // state (L2 sets, arbiter occupancy) and each core's Bernoulli stream
  // see the same order at any block size. A core retires in the round
  // its refill comes back empty.
  std::vector<std::vector<trace::Record>> blocks(n);
  std::vector<std::size_t> len(n, 0);
  std::vector<std::size_t> pos(n, 0);
  for (auto& block : blocks) {
    block.resize(block_records);
  }
  while (active > 0) {
    if (active == 1) {
      // Degenerate tail: one core left (mixes of unequal-length traces
      // spend most of their rounds here, and a one-core chip starts
      // here). Round order IS record order, so drop the per-record
      // round scan: the requester declaration is loop-invariant
      // (retired cores issue nothing), and with an arbiter each record
      // still closes its own round, so the priority/occupancy
      // accounting replays the generic loop exactly.
      std::size_t c = 0;
      while (done[c] != 0) {
        ++c;
      }
      if (arb != nullptr) {
        arb->begin_request(c);
        for (;;) {
          if (pos[c] == len[c]) {
            len[c] = sources[c]->next_batch(blocks[c].data(), block_records);
            pos[c] = 0;
            if (len[c] == 0) {
              break;
            }
          }
          const trace::Record* records = blocks[c].data();
          const std::size_t end = len[c];
          for (std::size_t p = pos[c]; p < end; ++p) {
            cores[c]->step_fast(records[p], states[c]);
            arb->new_round();
          }
          pos[c] = end;
        }
      } else {
        // Nothing shared to arbitrate: whole blocks at a time.
        if (pos[c] < len[c]) {
          cores[c]->step_batch(blocks[c].data() + pos[c], len[c] - pos[c],
                               states[c]);
          pos[c] = len[c];
        }
        std::size_t got = 0;
        while ((got = sources[c]->next_batch(blocks[c].data(),
                                             block_records)) > 0) {
          cores[c]->step_batch(blocks[c].data(), got, states[c]);
        }
      }
      done[c] = 1;
      active = 0;
      break;
    }
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t c = start + k;
      if (c >= n) {
        c -= n;
      }
      if (done[c] != 0) {
        continue;
      }
      if (pos[c] == len[c]) {
        len[c] = sources[c]->next_batch(blocks[c].data(), block_records);
        pos[c] = 0;
        if (len[c] == 0) {
          done[c] = 1;
          --active;
          continue;
        }
      }
      if (arb != nullptr) {
        arb->begin_request(c);
      }
      cores[c]->step_fast(blocks[c][pos[c]++], states[c]);
    }
    if (arb != nullptr) {
      arb->new_round();
    }
    if (++start == n) {
      start = 0;
    }
  }

  // Per-core roll-up. A one-core chip folds the shared levels into its
  // single result — bit-identical to run_workload; with several cores the
  // shared levels are accounted once, below.
  const bool single = n == 1;
  out.per_core.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    out.per_core.push_back(cores_[c]->finish_run(states[c], single));
  }
  if (single) {
    out.aggregate = out.per_core[0];
    return out;
  }

  cpu::RunResult& agg = out.aggregate;
  for (std::size_t c = 0; c < n; ++c) {
    const cpu::RunResult& r = out.per_core[c];
    agg.instructions += r.instructions;
    agg.cycles = std::max(agg.cycles, r.cycles);
    agg.seconds = std::max(agg.seconds, r.seconds);
    agg.energy.merge(r.energy);
    accumulate_cache_stats(agg.il1, r.il1);
    accumulate_cache_stats(agg.dl1, r.dl1);
  }
  // Early-finishing cores stay powered until the slowest core retires
  // (nothing models per-core power gating): charge each core's private
  // static power over its idle tail so the aggregate really is total chip
  // energy, not just the sum of per-core active windows.
  for (std::size_t c = 0; c < n; ++c) {
    const double idle_s = agg.seconds - out.per_core[c].seconds;
    if (idle_s <= 0.0) {
      continue;
    }
    const double l1_edc_leak_w =
        il1s_[c]->edc_leakage_power() + dl1s_[c]->edc_leakage_power();
    const double l1_leak_w = il1s_[c]->leakage_power() +
                             dl1s_[c]->leakage_power() - l1_edc_leak_w;
    agg.energy.add("l1.leakage", l1_leak_w * idle_s);
    agg.energy.add("l1.edc", l1_edc_leak_w * idle_s);
    agg.energy.add("arrays.leakage", cores_[c]->arrays_leakage_w() * idle_s);
    agg.energy.add("core.leakage", cores_[c]->logic_leakage_w() * idle_s);
  }
  // Per-core L1 snapshots under "C<i>." names, then the shared levels.
  for (std::size_t c = 0; c < n; ++c) {
    for (cache::LevelStats stats :
         {il1s_[c]->level_stats(), dl1s_[c]->level_stats()}) {
      // Built up stepwise: the one-line operator+ chain trips a GCC 12
      // -Wrestrict false positive (PR105329) under -Werror.
      std::string prefixed = "C";
      prefixed += std::to_string(c);
      prefixed += '.';
      prefixed += stats.name;
      stats.name = std::move(prefixed);
      agg.levels.push_back(std::move(stats));
    }
  }
  for (cache::MemoryLevel* level : shared_levels()) {
    const cache::LevelStats stats = level->level_stats();
    cpu::add_shared_level_energy(agg.energy, stats, agg.seconds);
    agg.levels.push_back(stats);
  }
  if (arbiter_ && arbiter_->arbitration_energy_j() != 0.0) {
    agg.energy.add(
        "contention." + cpu::level_energy_prefix(arbiter_->level_name()),
        arbiter_->arbitration_energy_j());
  }
  return out;
}

double System::l1_area_um2() const noexcept {
  double area = 0.0;
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    area += il1s_[c]->total_area_um2() + dl1s_[c]->total_area_um2();
  }
  return area;
}

double System::cache_area_um2() const noexcept {
  return l1_area_um2() + (l2_ ? l2_->total_area_um2() : 0.0);
}

const yield::CacheCellPlan& cell_plan_for(yield::Scenario scenario,
                                          double hp_vcc, double ule_vcc,
                                          double target_yield) {
  // Shared across every System built by concurrent explorer workers and
  // serve-daemon clients. Map nodes never move, so the lock only covers
  // the lookup; call_once then runs each key's sizing exactly once
  // without making callers of OTHER keys wait for it.
  struct Slot {
    std::once_flag once;
    yield::CacheCellPlan plan;
  };
  static std::mutex mutex;
  static std::map<std::tuple<yield::Scenario, double, double, double>, Slot>
      plans;
  Slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex);
    slot = &plans[{scenario, hp_vcc, ule_vcc, target_yield}];
  }
  std::call_once(slot->once, [&] {
    yield::MethodologyConfig config;
    config.target_yield = target_yield;
    slot->plan = yield::run_methodology(scenario, hp_vcc, ule_vcc, config);
  });
  return slot->plan;
}

cpu::RunResult run_one(const SystemConfig& config, const std::string& workload,
                       std::uint64_t workload_seed, std::size_t scale) {
  System system(config, cell_plan_for(config.design.scenario));
  return system.run_workload(workload, workload_seed, scale);
}

}  // namespace hvc::sim
