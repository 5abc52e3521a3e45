#include "hvc/explore/spec.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "hvc/common/error.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"

namespace hvc::explore {

namespace {

[[nodiscard]] std::vector<double> parse_numeric_axis(const std::string& axis,
                                                     const Json& value) {
  std::vector<double> values;
  if (value.is_array()) {
    for (const auto& entry : value.as_array()) {
      if (!entry.is_number()) {
        throw ConfigError("axis \"" + axis + "\": expected numbers");
      }
      values.push_back(entry.as_number());
    }
  } else if (value.is_object()) {
    for (const auto& member : value.as_object()) {
      if (member.first != "from" && member.first != "to" &&
          member.first != "step") {
        throw ConfigError("axis \"" + axis + "\": unknown grid key \"" +
                          member.first + "\"");
      }
    }
    const double from = value.at("from").as_number();
    const double to = value.at("to").as_number();
    const double step = value.at("step").as_number();
    if (step <= 0.0 || to < from) {
      throw ConfigError("axis \"" + axis +
                        "\": grid needs step > 0 and to >= from");
    }
    // Inclusive of `to` up to a half-ulp-ish slack so 0.28..0.50 step 0.02
    // lands exactly on 0.50 despite binary rounding.
    const double slack = step * 1e-9;
    for (double v = from; v <= to + slack; v += step) {
      values.push_back(std::min(v, to));
    }
  } else {
    throw ConfigError("axis \"" + axis +
                      "\": expected a list or {from,to,step} grid");
  }
  if (values.empty()) {
    throw ConfigError("axis \"" + axis + "\" is empty");
  }
  return values;
}

[[nodiscard]] std::vector<std::string> parse_string_axis(
    const std::string& axis, const Json& value) {
  if (!value.is_array()) {
    throw ConfigError("axis \"" + axis + "\": expected a list of strings");
  }
  std::vector<std::string> values;
  for (const auto& entry : value.as_array()) {
    if (!entry.is_string()) {
      throw ConfigError("axis \"" + axis + "\": expected strings");
    }
    values.push_back(entry.as_string());
  }
  if (values.empty()) {
    throw ConfigError("axis \"" + axis + "\" is empty");
  }
  return values;
}

[[nodiscard]] std::vector<std::string> expand_workloads(
    const std::vector<std::string>& entries) {
  std::vector<std::string> names;
  const auto append = [&names](const std::vector<std::string>& more) {
    names.insert(names.end(), more.begin(), more.end());
  };
  for (const auto& entry : entries) {
    if (entry == "@all") {
      append(wl::all_names());
    } else if (entry == "@big") {
      append(wl::names_of(wl::BenchClass::kBig));
    } else if (entry == "@small") {
      append(wl::names_of(wl::BenchClass::kSmall));
    } else if (wl::has_workload(entry)) {
      names.push_back(entry);
    } else if (trace::is_trace_ref(entry)) {
      // Recorded traces sweep like any workload; the file itself is only
      // opened (and validated) when a point runs, so specs stay portable
      // records of an experiment even before the trace exists.
      names.push_back(entry);
    } else {
      throw ConfigError("axis \"workload\": unknown workload \"" + entry +
                        "\" (use a registry name, trace:<path>, or "
                        "@small/@big/@all)");
    }
  }
  // Duplicates would silently double-count averages downstream.
  std::set<std::string> seen;
  for (const auto& name : names) {
    if (!seen.insert(name).second) {
      throw ConfigError("axis \"workload\": duplicate workload \"" + name +
                        "\"");
    }
  }
  return names;
}

[[nodiscard]] std::vector<std::string> split_mix(const std::string& mix) {
  std::vector<std::string> names;
  std::string::size_type start = 0;
  while (start <= mix.size()) {
    const auto plus = mix.find('+', start);
    const std::string name = mix.substr(
        start, plus == std::string::npos ? std::string::npos : plus - start);
    names.push_back(name);
    if (plus == std::string::npos) {
      break;
    }
    start = plus + 1;
  }
  return names;
}

[[nodiscard]] std::vector<std::string> validate_mixes(
    const std::vector<std::string>& entries) {
  for (const auto& entry : entries) {
    for (const auto& name : split_mix(entry)) {
      // Mix slots take registry names or trace:<path> refs ('+' splits
      // the mix, so trace paths containing '+' cannot be mixed).
      if (name.empty() ||
          (!wl::has_workload(name) && !trace::is_trace_ref(name))) {
        throw ConfigError("axis \"workload_mix\": mix \"" + entry +
                          "\" needs '+'-separated registry names or "
                          "trace:<path> refs (classes like @big are not "
                          "allowed inside a mix)");
      }
    }
  }
  std::set<std::string> seen;
  for (const auto& entry : entries) {
    if (!seen.insert(entry).second) {
      throw ConfigError("axis \"workload_mix\": duplicate mix \"" + entry +
                        "\"");
    }
  }
  return entries;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& key,
                                      const Json& value) {
  // 0x1p64 bound: larger (or non-finite) doubles make the cast to
  // uint64_t undefined behaviour, not just lossy.
  if (!value.is_number() || !std::isfinite(value.as_number()) ||
      value.as_number() < 0.0 || value.as_number() >= 0x1p64 ||
      value.as_number() != std::floor(value.as_number())) {
    throw ConfigError("\"" + key + "\" must be a non-negative integer < 2^64");
  }
  return static_cast<std::uint64_t>(value.as_number());
}

}  // namespace

const char* to_string(SweepKind kind) {
  return kind == SweepKind::kSimulation ? "simulation" : "methodology";
}

SweepSpec SweepSpec::from_json(const Json& json) {
  if (!json.is_object()) {
    throw ConfigError("sweep spec must be a JSON object");
  }
  static const std::set<std::string> known_keys = {
      "name", "kind",  "seed",         "system_seed", "workload_seed",
      "scale", "axes", "target_yield",
  };
  for (const auto& member : json.as_object()) {
    if (known_keys.find(member.first) == known_keys.end()) {
      throw ConfigError("unknown spec key \"" + member.first + "\"");
    }
  }

  SweepSpec spec;
  if (const Json* name = json.find("name")) {
    spec.name = name->as_string();
  }
  if (const Json* kind = json.find("kind")) {
    const std::string& text = kind->as_string();
    if (text == "simulation") {
      spec.kind = SweepKind::kSimulation;
    } else if (text == "methodology") {
      spec.kind = SweepKind::kMethodology;
    } else {
      throw ConfigError("\"kind\" must be \"simulation\" or \"methodology\"");
    }
  }
  if (const Json* seed = json.find("seed")) {
    spec.seed = parse_u64("seed", *seed);
  }
  if (const Json* system_seed = json.find("system_seed")) {
    spec.system_seed = parse_u64("system_seed", *system_seed);
  }
  if (const Json* workload_seed = json.find("workload_seed")) {
    spec.workload_seed = parse_u64("workload_seed", *workload_seed);
  }
  if (const Json* scale = json.find("scale")) {
    spec.scale = static_cast<std::size_t>(parse_u64("scale", *scale));
    if (spec.scale == 0) {
      throw ConfigError("\"scale\" must be >= 1");
    }
  }
  if (const Json* target_yield = json.find("target_yield")) {
    const double value = target_yield->as_number();
    if (value <= 0.0 || value >= 1.0) {
      throw ConfigError("\"target_yield\" must be in (0, 1)");
    }
    spec.target_yield = value;
  }

  const bool methodology = spec.kind == SweepKind::kMethodology;
  bool have_workloads = false;
  if (const Json* axes = json.find("axes")) {
    if (!axes->is_object()) {
      throw ConfigError("\"axes\" must be an object");
    }
    for (const auto& [axis, value] : axes->as_object()) {
      if (axis == "scenario") {
        spec.scenarios.clear();
        for (const auto& entry : parse_string_axis(axis, value)) {
          if (entry == "A") {
            spec.scenarios.push_back(yield::Scenario::kA);
          } else if (entry == "B") {
            spec.scenarios.push_back(yield::Scenario::kB);
          } else {
            throw ConfigError("axis \"scenario\": expected \"A\" or \"B\"");
          }
        }
      } else if (axis == "design") {
        if (methodology) {
          throw ConfigError(
              "axis \"design\" does not apply to methodology sweeps (the "
              "sizing loop covers baseline and proposed together)");
        }
        spec.designs.clear();
        for (const auto& entry : parse_string_axis(axis, value)) {
          if (entry == "baseline") {
            spec.designs.push_back(false);
          } else if (entry == "proposed") {
            spec.designs.push_back(true);
          } else {
            throw ConfigError(
                "axis \"design\": expected \"baseline\" or \"proposed\"");
          }
        }
      } else if (axis == "l2") {
        if (methodology) {
          throw ConfigError("axis \"l2\" does not apply to methodology sweeps");
        }
        spec.l2_designs.clear();
        for (const auto& entry : parse_string_axis(axis, value)) {
          if (entry != "none" && entry != "baseline" && entry != "proposed") {
            throw ConfigError(
                "axis \"l2\": expected \"none\", \"baseline\" or "
                "\"proposed\"");
          }
          spec.l2_designs.push_back(entry);
        }
      } else if (axis == "l2_size_kb") {
        if (methodology) {
          throw ConfigError(
              "axis \"l2_size_kb\" does not apply to methodology sweeps");
        }
        spec.l2_size_kbs = parse_numeric_axis(axis, value);
        for (const double kb : spec.l2_size_kbs) {
          if (kb < 1.0 || kb != std::floor(kb)) {
            throw ConfigError(
                "axis \"l2_size_kb\": sizes must be integers >= 1");
          }
        }
      } else if (axis == "cores") {
        if (methodology) {
          throw ConfigError(
              "axis \"cores\" does not apply to methodology sweeps");
        }
        spec.cores.clear();
        for (const double count : parse_numeric_axis(axis, value)) {
          if (count < 1.0 || count > 64.0 || count != std::floor(count)) {
            throw ConfigError(
                "axis \"cores\": core counts must be integers in [1, 64]");
          }
          spec.cores.push_back(static_cast<std::size_t>(count));
        }
      } else if (axis == "workload_mix") {
        if (methodology) {
          throw ConfigError(
              "axis \"workload_mix\" does not apply to methodology sweeps");
        }
        spec.workload_mixes =
            validate_mixes(parse_string_axis(axis, value));
      } else if (axis == "mode") {
        if (methodology) {
          throw ConfigError(
              "axis \"mode\" does not apply to methodology sweeps");
        }
        spec.modes.clear();
        for (const auto& entry : parse_string_axis(axis, value)) {
          if (entry == "hp") {
            spec.modes.push_back(power::Mode::kHp);
          } else if (entry == "ule") {
            spec.modes.push_back(power::Mode::kUle);
          } else {
            throw ConfigError("axis \"mode\": expected \"hp\" or \"ule\"");
          }
        }
      } else if (axis == "hp_vcc") {
        spec.hp_vccs = parse_numeric_axis(axis, value);
      } else if (axis == "ule_vcc") {
        spec.ule_vccs = parse_numeric_axis(axis, value);
      } else if (axis == "workload") {
        if (methodology) {
          throw ConfigError(
              "axis \"workload\" does not apply to methodology sweeps");
        }
        spec.workloads = expand_workloads(parse_string_axis(axis, value));
        have_workloads = true;
      } else if (axis == "scrub_interval_s") {
        if (methodology) {
          throw ConfigError(
              "axis \"scrub_interval_s\" does not apply to methodology "
              "sweeps");
        }
        spec.scrub_intervals_s = parse_numeric_axis(axis, value);
        for (const double interval : spec.scrub_intervals_s) {
          if (interval < 0.0) {
            throw ConfigError(
                "axis \"scrub_interval_s\": intervals must be >= 0");
          }
        }
      } else {
        throw ConfigError("unknown axis \"" + axis + "\"");
      }
    }
  }
  for (const double vcc : spec.hp_vccs) {
    if (vcc <= 0.0 || vcc > 2.0) {
      throw ConfigError("axis \"hp_vcc\": voltages must be in (0, 2] V");
    }
  }
  for (const double vcc : spec.ule_vccs) {
    if (vcc <= 0.0 || vcc > 2.0) {
      throw ConfigError("axis \"ule_vcc\": voltages must be in (0, 2] V");
    }
  }
  if (!methodology && have_workloads && !spec.workload_mixes.empty()) {
    throw ConfigError(
        "axes \"workload\" and \"workload_mix\" are mutually exclusive "
        "(a mix of one name covers the single-workload case)");
  }
  if (!methodology && !have_workloads && spec.workload_mixes.empty()) {
    throw ConfigError(
        "simulation sweeps need a \"workload\" axis (e.g. [\"@big\"]) or a "
        "\"workload_mix\" axis");
  }
  return spec;
}

SweepSpec SweepSpec::parse(std::string_view text) {
  return from_json(Json::parse(text));
}

Json SweepSpec::to_json() const {
  Json axes;
  {
    Json::Array values;
    for (const auto scenario : scenarios) {
      values.emplace_back(yield::to_string(scenario));
    }
    axes.set("scenario", Json(std::move(values)));
  }
  if (kind == SweepKind::kSimulation) {
    Json::Array values;
    for (const bool proposed : designs) {
      values.emplace_back(proposed ? "proposed" : "baseline");
    }
    axes.set("design", Json(std::move(values)));
    Json::Array l2_values;
    for (const auto& l2 : l2_designs) {
      l2_values.emplace_back(l2);
    }
    axes.set("l2", Json(std::move(l2_values)));
    Json::Array l2_size_values;
    for (const double kb : l2_size_kbs) {
      l2_size_values.emplace_back(kb);
    }
    axes.set("l2_size_kb", Json(std::move(l2_size_values)));
    Json::Array core_values;
    for (const std::size_t count : cores) {
      core_values.emplace_back(static_cast<double>(count));
    }
    axes.set("cores", Json(std::move(core_values)));
    Json::Array mode_values;
    for (const auto mode : modes) {
      mode_values.emplace_back(mode == power::Mode::kHp ? "hp" : "ule");
    }
    axes.set("mode", Json(std::move(mode_values)));
  }
  {
    Json::Array values;
    for (const double vcc : hp_vccs) {
      values.emplace_back(vcc);
    }
    axes.set("hp_vcc", Json(std::move(values)));
  }
  {
    Json::Array values;
    for (const double vcc : ule_vccs) {
      values.emplace_back(vcc);
    }
    axes.set("ule_vcc", Json(std::move(values)));
  }
  if (kind == SweepKind::kSimulation) {
    if (workload_mixes.empty()) {
      Json::Array values;
      for (const auto& name : workloads) {
        values.emplace_back(name);
      }
      axes.set("workload", Json(std::move(values)));
    } else {
      Json::Array values;
      for (const auto& mix : workload_mixes) {
        values.emplace_back(mix);
      }
      axes.set("workload_mix", Json(std::move(values)));
    }
    Json::Array scrub_values;
    for (const double interval : scrub_intervals_s) {
      scrub_values.emplace_back(interval);
    }
    axes.set("scrub_interval_s", Json(std::move(scrub_values)));
  }

  Json out;
  out.set("name", Json(name));
  out.set("kind", Json(to_string(kind)));
  out.set("seed", Json(static_cast<double>(seed)));
  if (system_seed) {
    out.set("system_seed", Json(static_cast<double>(*system_seed)));
  }
  out.set("workload_seed", Json(static_cast<double>(workload_seed)));
  out.set("scale", Json(scale));
  out.set("target_yield", Json(target_yield));
  out.set("axes", std::move(axes));
  return out;
}

std::size_t SweepSpec::point_count() const noexcept {
  std::size_t count = scenarios.size() * hp_vccs.size() * ule_vccs.size();
  if (kind == SweepKind::kSimulation) {
    // "none" has no L2 to size: it contributes one hierarchy shape however
    // many sizes the l2_size_kb axis lists (GridPointSource collapses it
    // the same way, so no duplicate rows are simulated).
    std::size_t l2_shapes = 0;
    for (const auto& l2 : l2_designs) {
      l2_shapes += l2 == "none" ? 1 : l2_size_kbs.size();
    }
    const std::size_t workload_points =
        workload_mixes.empty() ? workloads.size() : workload_mixes.size();
    count *= designs.size() * l2_shapes * cores.size() * modes.size() *
             workload_points * scrub_intervals_s.size();
  }
  return count;
}

std::vector<std::string> SweepPoint::core_workloads() const {
  if (!workload_mix.empty()) {
    return split_mix(workload_mix);
  }
  return {workload};
}

}  // namespace hvc::explore
