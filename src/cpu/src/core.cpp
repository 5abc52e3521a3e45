#include "hvc/cpu/core.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "hvc/common/error.hpp"
#include "hvc/tech/transistor.hpp"

namespace hvc::cpu {

std::string level_energy_prefix(const std::string& level_name) {
  std::string out = level_name;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

void add_shared_level_energy(Breakdown& energy,
                             const cache::LevelStats& stats, double seconds) {
  const std::string prefix = level_energy_prefix(stats.name);
  if (stats.dynamic_energy_j != 0.0) {
    energy.add(prefix + ".dynamic", stats.dynamic_energy_j);
  }
  if (stats.edc_energy_j != 0.0) {
    energy.add(prefix + ".edc", stats.edc_energy_j);
  }
  if (stats.leakage_w != 0.0) {
    energy.add(prefix + ".leakage", stats.leakage_w * seconds);
  }
}

const cache::LevelStats* RunResult::level(const std::string& name) const {
  for (const auto& entry : levels) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

Core::Core(CoreParams params, cache::Cache& il1, cache::Cache& dl1,
           power::OperatingPoint op, const tech::TechNode& node)
    : Core(params, MemoryPorts{&il1, &dl1, {}}, op, node) {}

Core::Core(CoreParams params, MemoryPorts ports, power::OperatingPoint op,
           const tech::TechNode& node)
    : params_(params), ports_(std::move(ports)), op_(op), node_(node),
      rng_(kBernoulliSeed) {
  expects(ports_.il1 != nullptr && ports_.dl1 != nullptr,
          "core needs both L1 ports connected");
  // Register file: 32 x 32-bit, 10T (works at any Vcc).
  power::ArrayGeometry rf_geom{32, 32, 32};
  regfile_ = std::make_unique<power::ArrayModel>(rf_geom, params_.array_cell,
                                                 op_.vcc, node_);
  // TLBs: 8 entries x ~48 bits (VPN+PPN+flags) — tiny, sensor-class MMU.
  power::ArrayGeometry tlb_geom{8, 48, 48};
  itlb_ = std::make_unique<power::ArrayModel>(tlb_geom, params_.array_cell,
                                              op_.vcc, node_);
  dtlb_ = std::make_unique<power::ArrayModel>(tlb_geom, params_.array_cell,
                                              op_.vcc, node_);

  const tech::TransistorModel model(node_);
  const tech::Device leak_dev{params_.core_leak_width_um * 1e3 /
                              node_.min_width_nm};
  core_leak_w_ = model.ioff(leak_dev, op_.vcc) * op_.vcc;
}

double Core::core_leakage_w() const noexcept {
  return core_leak_w_ + regfile_->leakage_power() + itlb_->leakage_power() +
         dtlb_->leakage_power();
}

double Core::arrays_leakage_w() const noexcept {
  return regfile_->leakage_power() + itlb_->leakage_power() +
         dtlb_->leakage_power();
}

void Core::begin_run() {
  // Restart the load-use/redirect Bernoulli stream at a fixed phase.
  // Without this, a second run on the same System continues mid-stream
  // and diverges from a fresh System — silent nondeterminism that would
  // poison any trace-vs-live differential comparison.
  rng_ = Rng(kBernoulliSeed);
  // Snapshot cache energy so this run reports deltas.
  ports_.il1->clear_energy();
  ports_.dl1->clear_energy();
  ports_.il1->clear_stats();
  ports_.dl1->clear_stats();

  consts_.core_energy_per_instr =
      params_.core_cap_per_instr_f * op_.vcc * op_.vcc;
  consts_.rf_read = regfile_->read_energy();
  consts_.rf_write = regfile_->write_energy();
  consts_.tlb_read = itlb_->read_energy();
  consts_.il1_hit = ports_.il1->hit_latency();
  consts_.dl1_hit = ports_.dl1->hit_latency();
}

RunResult Core::run(trace::TraceSource& source, std::size_t block_records) {
  expects(block_records > 0, "block_records must be at least 1");
  source.reset();
  begin_run();
  for (cache::MemoryLevel* level : ports_.shared) {
    level->clear_level_counters();
  }
  RunState state;
  std::vector<trace::Record> block(block_records);
  std::size_t got = 0;
  while ((got = source.next_batch(block.data(), block.size())) > 0) {
    step_batch(block.data(), got, state);
  }
  return finish_run(state);
}

RunResult Core::finish_run(const RunState& state, bool include_shared) const {
  RunResult result;
  cache::Cache& il1_ = *ports_.il1;
  cache::Cache& dl1_ = *ports_.dl1;
  const double arrays_dynamic = state.arrays_dynamic;
  const double core_dynamic = state.core_dynamic;

  result.instructions = state.instructions;
  result.cycles = state.cycles;
  result.seconds = static_cast<double>(state.cycles) / op_.freq_hz;

  // --- energy roll-up ---
  result.energy.add("l1.dynamic",
                    il1_.dynamic_energy_j() + dl1_.dynamic_energy_j());
  result.energy.add("l1.edc", il1_.edc_energy_j() + dl1_.edc_energy_j());
  const double l1_leak =
      (il1_.leakage_power() - il1_.edc_leakage_power()) +
      (dl1_.leakage_power() - dl1_.edc_leakage_power());
  result.energy.add("l1.leakage", l1_leak * result.seconds);
  result.energy.add("l1.edc",
                    (il1_.edc_leakage_power() + dl1_.edc_leakage_power()) *
                        result.seconds);
  result.energy.add("arrays.dynamic", arrays_dynamic);
  result.energy.add("arrays.leakage", arrays_leakage_w() * result.seconds);
  result.energy.add("core.dynamic", core_dynamic);
  result.energy.add("core.leakage", core_leak_w_ * result.seconds);

  // Shared deeper levels (L2, memory terminal): per-level energy. A
  // multi-core driver passes include_shared = false and accounts these
  // once across all cores instead of once per core.
  if (include_shared) {
    for (cache::MemoryLevel* level : ports_.shared) {
      add_shared_level_energy(result.energy, level->level_stats(),
                              result.seconds);
    }
  }

  result.il1 = il1_.stats();
  result.dl1 = dl1_.stats();
  result.levels.reserve(3 + (include_shared ? ports_.shared.size() : 0));
  result.levels.push_back(il1_.level_stats());
  result.levels.push_back(dl1_.level_stats());
  if (include_shared) {
    for (cache::MemoryLevel* level : ports_.shared) {
      result.levels.push_back(level->level_stats());
    }
  }
  return result;
}

}  // namespace hvc::cpu
