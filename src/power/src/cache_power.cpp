#include "hvc/power/cache_power.hpp"

#include <algorithm>

#include "hvc/common/error.hpp"
#include "hvc/tech/transistor.hpp"

namespace hvc::power {

namespace {

[[nodiscard]] edc::GateFigures to_gate_figures(const tech::LogicFigures& f) {
  return {f.switch_energy_j, f.leakage_w, f.delay_s};
}

/// Area of one logic gate in um^2 (rough standard-cell footprint at 32 nm).
constexpr double kGateAreaUm2 = 0.6;

}  // namespace

const char* to_string(Mode mode) { return mode == Mode::kHp ? "HP" : "ULE"; }

void CacheOrg::validate() const {
  expects(ways >= 1, "cache needs at least one way");
  expects(line_bytes >= 4 && line_bytes % 4 == 0,
          "lines must hold whole 4-byte words");
  expects(word_bits >= 1 && (line_bytes * 8) % word_bits == 0,
          "lines must hold a whole number of data words");
  expects(size_bytes >= line_bytes && size_bytes % line_bytes == 0,
          "cache size must hold whole lines");
  expects(lines() % ways == 0 && sets() >= 1,
          "cache size must divide evenly into sets (size/line/ways)");
}

edc::Protection WayPlan::stored_protection() const noexcept {
  const auto rank = [](edc::Protection p) {
    return p == edc::Protection::kNone ? 0 : p == edc::Protection::kSecded ? 1 : 2;
  };
  return rank(hp_protection) >= rank(ule_protection) ? hp_protection
                                                     : ule_protection;
}

CacheEnergyModel::CacheEnergyModel(const CacheOrg& org,
                                   std::vector<WayPlan> ways,
                                   OperatingPoint op,
                                   const tech::TechNode& node)
    : org_(org), ways_(std::move(ways)), op_(op) {
  expects(org_.ways >= 1, "cache needs at least one way");
  expects(ways_.size() == org_.ways, "one WayPlan per way required");
  expects(org_.size_bytes % (org_.line_bytes * org_.ways) == 0,
          "cache size must divide evenly into sets");

  const auto gate = to_gate_figures(tech::xor_gate_figures(node, op_.vcc));
  arrays_.reserve(ways_.size());

  for (std::size_t w = 0; w < ways_.size(); ++w) {
    const WayPlan& plan = ways_[w];
    WayArrays entry;

    const std::size_t stored_check_data =
        edc::check_bits_for(plan.stored_protection());
    const std::size_t stored_check_tag = stored_check_data;
    const edc::Protection active = plan.protection_at(op_.mode);
    const std::size_t active_check = edc::check_bits_for(active);

    // --- physical arrays (always built with the widest protection) ---
    ArrayGeometry tag_phys;
    tag_phys.rows = org_.lines_per_way();
    tag_phys.cols = org_.tag_bits + stored_check_tag;
    tag_phys.bits_per_access = tag_phys.cols;
    entry.tag_physical =
        std::make_unique<ArrayModel>(tag_phys, plan.cell, op_.vcc, node);

    ArrayGeometry data_phys;
    data_phys.rows = org_.lines_per_way();
    data_phys.cols = org_.line_bytes * 8 +
                     org_.words_per_line() * stored_check_data;
    data_phys.bits_per_access = org_.word_bits + stored_check_data;
    entry.data_physical =
        std::make_unique<ArrayModel>(data_phys, plan.cell, op_.vcc, node);

    // --- dynamic arrays: only the columns active in this mode ---
    ArrayGeometry tag_dyn = tag_phys;
    tag_dyn.cols = org_.tag_bits + active_check;
    tag_dyn.bits_per_access = tag_dyn.cols;
    entry.tag_dynamic =
        std::make_unique<ArrayModel>(tag_dyn, plan.cell, op_.vcc, node);

    ArrayGeometry data_dyn = data_phys;
    data_dyn.cols = org_.line_bytes * 8 + org_.words_per_line() * active_check;
    data_dyn.bits_per_access = org_.word_bits + active_check;
    entry.data_dynamic =
        std::make_unique<ArrayModel>(data_dyn, plan.cell, op_.vcc, node);

    // --- EDC circuitry for the active protection ---
    if (active != edc::Protection::kNone) {
      entry.codec = edc::shared_codec(active, org_.word_bits);
      const auto enc = edc::circuit_cost(edc::encoder_shape(*entry.codec), gate);
      const auto dec = edc::circuit_cost(edc::decoder_shape(*entry.codec), gate);
      entry.encode_energy = enc.energy_j;
      entry.decode_energy = dec.energy_j;
      entry.edc_leakage = enc.leakage_w + dec.leakage_w;
      entry.edc_delay = std::max(enc.delay_s, dec.delay_s);
      entry.edc_area_um2 =
          static_cast<double>(enc.gates + dec.gates) * kGateAreaUm2;
    }

    arrays_.push_back(std::move(entry));
  }

  // --- aggregate per-mode figures ---
  for (std::size_t w = 0; w < ways_.size(); ++w) {
    const auto& entry = arrays_[w];
    const bool active = way_active(w);
    const double phys_leak = entry.tag_physical->leakage_power() +
                             entry.data_physical->leakage_power();
    if (active) {
      lookup_energy_ += entry.tag_dynamic->read_energy() +
                        entry.data_dynamic->read_energy();
      if (entry.codec) {
        edc_active_ = true;
        edc_delay_ = std::max(edc_delay_, entry.edc_delay);
      }
      leakage_w_ += phys_leak;
      edc_leakage_w_ += entry.edc_leakage;
      access_delay_ = std::max({access_delay_,
                                entry.tag_dynamic->access_delay(),
                                entry.data_dynamic->access_delay()});
    } else {
      leakage_w_ += phys_leak * kGatedLeakageResidual;
      edc_leakage_w_ += entry.edc_leakage * kGatedLeakageResidual;
    }
    area_um2_ += entry.tag_physical->area_um2() +
                 entry.data_physical->area_um2() + entry.edc_area_um2;
  }
  leakage_w_ += edc_leakage_w_;
}

const WayPlan& CacheEnergyModel::way(std::size_t w) const {
  expects(w < ways_.size(), "way index out of range");
  return ways_[w];
}

bool CacheEnergyModel::way_active(std::size_t w) const {
  expects(w < ways_.size(), "way index out of range");
  return op_.mode == Mode::kHp || ways_[w].ule_way;
}

double CacheEnergyModel::word_write_energy(std::size_t w) const {
  expects(w < arrays_.size(), "way index out of range");
  return arrays_[w].data_dynamic->write_energy();
}

double CacheEnergyModel::line_fill_energy(std::size_t w) const {
  expects(w < arrays_.size(), "way index out of range");
  const auto& entry = arrays_[w];
  const auto words = static_cast<double>(org_.words_per_line());
  return words * entry.data_dynamic->write_energy() +
         entry.tag_dynamic->write_energy();
}

double CacheEnergyModel::line_read_energy(std::size_t w) const {
  expects(w < arrays_.size(), "way index out of range");
  const auto& entry = arrays_[w];
  const auto words = static_cast<double>(org_.words_per_line());
  return words * entry.data_dynamic->read_energy();
}

double CacheEnergyModel::edc_decode_energy(std::size_t w) const {
  expects(w < arrays_.size(), "way index out of range");
  return arrays_[w].codec ? arrays_[w].decode_energy : 0.0;
}

double CacheEnergyModel::edc_encode_energy(std::size_t w) const {
  expects(w < arrays_.size(), "way index out of range");
  return arrays_[w].codec ? arrays_[w].encode_energy : 0.0;
}

}  // namespace hvc::power
