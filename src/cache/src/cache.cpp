#include "hvc/cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "hvc/common/error.hpp"

namespace hvc::cache {

Cache::Cache(CacheConfig config, MemoryLevel& next_level, Rng& rng)
    : config_(std::move(config)),
      next_level_(&next_level),
      rng_(rng.fork(0xCACE)) {
  const power::CacheOrg& org = config_.org;
  org.validate();
  expects(config_.ways.size() == org.ways, "one WayPlan per way required");
  expects(config_.way_hard_pf.empty() ||
              config_.way_hard_pf.size() == org.ways,
          "way_hard_pf must be empty or one entry per way");

  const std::size_t sets = org.sets();
  words_per_line_ = org.words_per_line();
  word_mask_ = low_mask(org.word_bits);
  write_through_ =
      config_.write_policy == WritePolicy::kWriteThroughNoAllocate;
  pow2_geometry_ = std::has_single_bit(org.line_bytes) &&
                   std::has_single_bit(sets);
  if (pow2_geometry_) {
    line_shift_ = static_cast<unsigned>(std::countr_zero(org.line_bytes));
    set_mask_ = static_cast<std::uint64_t>(sets) - 1;
  }
  probe_keys_.assign(sets * org.ways, kProbeInvalid);
  dirty_.assign(sets * org.ways, 0);
  lru_stamps_.assign(sets * org.ways, 0);
  mru_way_.assign(sets, 0);

  Rng fault_rng(config_.fault_seed);
  ways_.resize(org.ways);
  stored_data_cw_bits_.resize(org.ways);
  stored_tag_cw_bits_.resize(org.ways);
  for (std::size_t w = 0; w < org.ways; ++w) {
    Way& way = ways_[w];
    const std::size_t stored_check =
        edc::check_bits_for(config_.ways[w].stored_protection());
    stored_data_cw_bits_[w] = org.word_bits + stored_check;
    stored_tag_cw_bits_[w] = org.tag_bits + stored_check;
    expects(stored_data_cw_bits_[w] <= 64 && stored_tag_cw_bits_[w] <= 64,
            "packed line storage requires codewords of <= 64 bits");

    way.data_words.assign(sets * words_per_line_, 0);
    way.tag_words.assign(sets, 0);

    const double pf =
        config_.way_hard_pf.empty() ? 0.0 : config_.way_hard_pf[w];
    const std::size_t data_bits =
        sets * words_per_line_ * stored_data_cw_bits_[w];
    const std::size_t tag_bits = sets * stored_tag_cw_bits_[w];
    way.data_faults = std::make_unique<FaultMap>(data_bits, pf, fault_rng);
    way.tag_faults = std::make_unique<FaultMap>(tag_bits, pf, fault_rng);
  }
  line_buf_.assign(words_per_line_, 0);
  line_word_ok_.assign(words_per_line_, 1);

  const power::CacheEnergyModel hp_model(org, config_.ways, config_.hp);
  const power::CacheEnergyModel ule_model(org, config_.ways, config_.ule);
  modes_[0] = build_mode_table(hp_model);
  modes_[1] = build_mode_table(ule_model);
  area_um2_ = hp_model.total_area_um2();
}

Cache::ModeTable Cache::build_mode_table(
    const power::CacheEnergyModel& model) const {
  const power::Mode mode = model.op().mode;
  const std::size_t sets = config_.org.sets();
  ModeTable t;
  t.way.resize(config_.org.ways);
  t.tag_clean.assign(sets, 1);
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    const edc::Protection protection = config_.ways[w].protection_at(mode);
    WayMode& wm = t.way[w];
    wm.active = model.way_active(w);
    wm.data_codec = edc::shared_codec(protection, config_.org.word_bits);
    wm.tag_codec = edc::shared_codec(protection, config_.org.tag_bits);
    wm.word_write = model.word_write_energy(w);
    wm.line_fill = model.line_fill_energy(w);
    wm.line_read = model.line_read_energy(w);
    wm.edc_encode = model.edc_encode_energy(w);
    wm.edc_decode = model.edc_decode_energy(w);
    if (wm.active && wm.tag_codec != nullptr) {
      t.lookup_edc.push_back(wm.edc_decode);
    }
    // Hard faults manifest at ULE only: there, a set is not clean when a
    // powered way's stored tag touches a stuck bit.
    if (wm.active && mode == power::Mode::kUle) {
      for (std::size_t set = 0; set < sets; ++set) {
        if (ways_[w].tag_faults->any_stuck(tag_bit_base(w, set),
                                           stored_tag_cw_bits_[w])) {
          t.tag_clean[set] = 0;
        }
      }
    }
  }
  t.lookup_dyn = model.lookup_energy();
  t.hit_latency = config_.hit_latency_cycles +
                  (model.edc_active() ? config_.edc_latency_cycles : 0);
  t.leakage_w = model.leakage_power();
  t.edc_leakage_w = model.edc_leakage_power();
  return t;
}

std::size_t Cache::set_of(std::uint64_t line_addr) const noexcept {
  return static_cast<std::size_t>(line_addr % config_.org.sets());
}

std::uint64_t Cache::tag_of(std::uint64_t line_addr) const noexcept {
  const std::uint64_t tag = line_addr / config_.org.sets();
  return tag & ((1ULL << config_.org.tag_bits) - 1);
}

std::size_t Cache::data_bit_base(std::size_t w, std::size_t set,
                                 std::size_t word) const noexcept {
  return data_word_index(set, word) * stored_data_cw_bits_[w];
}

std::size_t Cache::tag_bit_base(std::size_t w, std::size_t set) const noexcept {
  return set * stored_tag_cw_bits_[w];
}

bool Cache::line_valid(std::size_t way, std::size_t set) const {
  expects(way < ways_.size(), "way out of range");
  expects(set < config_.org.sets(), "set out of range");
  return valid(set, way);
}

Breakdown Cache::energy() const {
  Breakdown out;
  out.add("dynamic", energy_j_[kEnergyDynamic]);
  out.add("edc", energy_j_[kEnergyEdc]);
  return out;
}

std::size_t Cache::find_way(std::uint64_t line_addr, std::size_t set,
                            AccessResult& result) {
  // Gated ways hold kProbeInvalid, so read_tag skips them unread.
  const std::uint64_t tag = tag_of(line_addr);
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    const auto stored_tag = read_tag(w, set, result);
    if (stored_tag && *stored_tag == tag &&
        probe_keys_[slot(set, w)] == line_addr) {
      return w;
    }
  }
  return config_.org.ways;
}

std::optional<std::uint64_t> Cache::read_tag(std::size_t w, std::size_t set,
                                             AccessResult& result) {
  if (!valid(set, w)) {
    return std::nullopt;
  }
  const edc::Codec* codec = table().way[w].tag_codec;
  const std::size_t active_bits =
      codec ? codec->codeword_bits() : config_.org.tag_bits;
  std::uint64_t raw = ways_[w].tag_words[set];
  // Hard faults manifest at near-threshold voltage only (HP-way cells are
  // sized for negligible Pf at high Vcc).
  if (mode_ == power::Mode::kUle) {
    raw = ways_[w].tag_faults->apply_word(raw, tag_bit_base(w, set),
                                          stored_tag_cw_bits_[w]);
  }
  raw &= low_mask(active_bits);
  if (codec == nullptr) {
    return raw;
  }
  const edc::WordDecodeResult decoded = codec->decode_word(raw);
  if (decoded.status == edc::DecodeStatus::kDetected) {
    ++stats_.edc_detected;
    result.detected_uncorrectable = true;
    return std::nullopt;
  }
  if (decoded.status == edc::DecodeStatus::kCorrected) {
    stats_.edc_corrections += decoded.corrected_bits;
    result.corrected_bits += decoded.corrected_bits;
  }
  return decoded.data;
}

std::optional<std::uint32_t> Cache::read_data_word(std::size_t w,
                                                   std::size_t set,
                                                   std::size_t word,
                                                   AccessResult& result) {
  const edc::Codec* codec = table().way[w].data_codec;
  const std::size_t active_bits =
      codec ? codec->codeword_bits() : config_.org.word_bits;
  std::uint64_t raw = ways_[w].data_words[data_word_index(set, word)];
  if (mode_ == power::Mode::kUle) {
    raw = ways_[w].data_faults->apply_word(raw, data_bit_base(w, set, word),
                                           stored_data_cw_bits_[w]);
  }
  raw &= low_mask(active_bits);
  if (codec == nullptr) {
    return static_cast<std::uint32_t>(raw);
  }
  const edc::WordDecodeResult decoded = codec->decode_word(raw);
  if (decoded.status == edc::DecodeStatus::kDetected) {
    ++stats_.edc_detected;
    result.detected_uncorrectable = true;
    return std::nullopt;
  }
  if (decoded.status == edc::DecodeStatus::kCorrected) {
    stats_.edc_corrections += decoded.corrected_bits;
    result.corrected_bits += decoded.corrected_bits;
  }
  return static_cast<std::uint32_t>(decoded.data);
}

void Cache::write_data_word(const ModeTable& t, std::size_t w,
                            std::size_t set, std::size_t word,
                            std::uint32_t value) {
  const edc::Codec* codec = t.way[w].data_codec;
  const std::uint64_t data = value & word_mask_;
  ways_[w].data_words[data_word_index(set, word)] =
      codec ? codec->encode_word(data) : data;
}

void Cache::write_tag(const ModeTable& t, std::size_t w, std::size_t set,
                      std::uint64_t tag) {
  const edc::Codec* codec = t.way[w].tag_codec;
  const std::uint64_t data = tag & low_mask(config_.org.tag_bits);
  ways_[w].tag_words[set] = codec ? codec->encode_word(data) : data;
}

void Cache::store_to_line(std::uint64_t addr, std::uint32_t value,
                          std::size_t w, std::size_t set) {
  const ModeTable& t = table();
  write_data_word(t, w, set, word_of(addr), value);
  charge(kEnergyDynamic, t.way[w].word_write);
  charge(kEnergyEdc, t.way[w].edc_encode);
  if (write_through_) {
    (void)next_level_->store_word(addr, value);
  } else {
    dirty_[slot(set, w)] = 1;
  }
}

void Cache::load_from_line(std::uint64_t addr, std::size_t w, std::size_t set,
                           AccessResult& result) {
  charge(kEnergyEdc, table().way[w].edc_decode);
  const auto value = read_data_word(w, set, word_of(addr), result);
  // Uncorrectable data: fall back to the next level (predictability
  // safety net; never taken with properly sized cells).
  result.data = value ? *value : next_level_->load_word(addr);
}

void Cache::writeback_line(std::size_t w, std::size_t set) {
  const WayMode& wm = table().way[w];
  charge(kEnergyDynamic, wm.line_read);
  charge(kEnergyEdc, static_cast<double>(words_per_line_) * wm.edc_decode);
  AccessResult scratch;
  const std::uint64_t base_addr =
      probe_keys_[slot(set, w)] * config_.org.line_bytes;
  bool all_valid = true;
  for (std::size_t word = 0; word < words_per_line_; ++word) {
    const auto value = read_data_word(w, set, word, scratch);
    // An uncorrectable word during writeback falls back to the (stale)
    // next-level copy; counted via stats_.edc_detected inside
    // read_data_word.
    line_word_ok_[word] = value.has_value();
    line_buf_[word] = value.value_or(0);
    all_valid = all_valid && value.has_value();
  }
  if (all_valid) {
    (void)next_level_->writeback_block(base_addr, line_buf_.data(),
                                       words_per_line_);
  } else {
    for (std::size_t word = 0; word < words_per_line_; ++word) {
      if (line_word_ok_[word]) {
        (void)next_level_->store_word(base_addr + 4 * word, line_buf_[word]);
      }
    }
  }
  dirty_[slot(set, w)] = 0;
  ++stats_.writebacks;
}

std::size_t Cache::fill_line(std::uint64_t line_addr, std::size_t set,
                             AccessResult& result,
                             const std::uint32_t* incoming) {
  // Victim among the active ways: the first invalid one, else the least
  // recently used (the first smallest stamp in way order).
  const ModeTable& t = table();
  std::size_t victim = config_.org.ways;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    if (!t.way[w].active) {
      continue;
    }
    if (!valid(set, w)) {
      victim = w;
      break;
    }
    const std::uint64_t stamp = lru_stamps_[slot(set, w)];
    if (stamp < oldest) {
      oldest = stamp;
      victim = w;
    }
  }
  if (victim == config_.org.ways) {
    throw InvariantError("no active way available for fill");
  }

  if (dirty_[slot(set, victim)] != 0) {
    writeback_line(victim, set);
    result.writeback = true;
  }

  const std::uint64_t base_addr = line_addr * config_.org.line_bytes;
  const std::uint32_t* words = incoming;
  if (words == nullptr) {
    // The next level reports this request's latency (its hit latency, or
    // its own miss chain) — the terminal level reports the flat memory
    // latency, reproducing the original two-level timing exactly.
    result.latency_cycles +=
        next_level_->fetch_block(base_addr, line_buf_.data(), words_per_line_);
    words = line_buf_.data();
  }
  probe_keys_[slot(set, victim)] = line_addr;
  dirty_[slot(set, victim)] = 0;
  write_tag(t, victim, set, tag_of(line_addr));
  for (std::size_t word = 0; word < words_per_line_; ++word) {
    write_data_word(t, victim, set, word, words[word]);
  }

  charge(kEnergyDynamic, t.way[victim].line_fill);
  charge(kEnergyEdc, static_cast<double>(words_per_line_ + 1) *
                         t.way[victim].edc_encode);
  ++stats_.fills;
  touch(set, victim);
  return victim;
}

AccessResult Cache::access(std::uint64_t addr, AccessType type,
                           std::uint32_t store_value) {
  AccessResult result;
  ++stats_.accesses;
  switch (type) {
    case AccessType::kLoad: ++stats_.loads; break;
    case AccessType::kStore: ++stats_.stores; break;
    case AccessType::kIfetch: ++stats_.ifetches; break;
  }

  const std::uint64_t line_addr = addr / config_.org.line_bytes;
  const std::size_t set = set_of(line_addr);

  const ModeTable& t = table();
  charge_lookup(t);
  result.latency_cycles = t.hit_latency;

  std::size_t way = find_way(line_addr, set, result);
  if (way != config_.org.ways) {
    result.hit = true;
    ++stats_.hits;
    touch(set, way);
  } else {
    ++stats_.misses;
    if (type == AccessType::kStore && write_through_) {
      result.latency_cycles += next_level_->store_word(addr, store_value);
      return result;
    }
    way = fill_line(line_addr, set, result);
  }
  result.way = way;
  if (type == AccessType::kStore) {
    store_to_line(addr, store_value, way, set);
  } else {
    load_from_line(addr, way, set, result);
  }
  return result;
}

void Cache::access_batched_fallback(std::uint64_t addr, AccessType type,
                                    std::uint32_t store_value, bool& hit,
                                    std::uint32_t& latency_cycles) {
  const AccessResult result = access(addr, type, store_value);
  hit = result.hit;
  latency_cycles = static_cast<std::uint32_t>(result.latency_cycles);
}

void Cache::set_mode(power::Mode mode) {
  if (mode == mode_) {
    return;
  }
  if (mode == power::Mode::kUle) {
    // HP -> ULE: drain HP ways (gated-Vdd loses their content).
    for (std::size_t w = 0; w < config_.org.ways; ++w) {
      if (config_.ways[w].ule_way) {
        continue;
      }
      for (std::size_t set = 0; set < config_.org.sets(); ++set) {
        if (dirty_[slot(set, w)] != 0) {
          writeback_line(w, set);
          ++stats_.mode_switch_writebacks;
        }
        invalidate(set, w);
      }
    }
  }

  // Re-encode retained ULE-way lines for the protection of the new mode
  // (a scrub pass: read+decode with the current mode's codes, encode+write
  // with the target mode's).
  const ModeTable& target = table_for(mode);
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    const power::WayPlan& plan = config_.ways[w];
    if (!plan.ule_way || plan.hp_protection == plan.ule_protection) {
      continue;  // gated at ULE, or the same codeword layout in both modes
    }
    for (std::size_t set = 0; set < config_.org.sets(); ++set) {
      if (!valid(set, w)) {
        continue;
      }
      AccessResult scratch;
      bool lost = false;
      for (std::size_t word = 0; word < words_per_line_ && !lost; ++word) {
        const auto value = read_data_word(w, set, word, scratch);
        lost = !value;
        line_buf_[word] = value.value_or(0);
      }
      const auto old_tag = read_tag(w, set, scratch);
      if (lost || !old_tag) {
        invalidate(set, w);
        continue;
      }
      write_tag(target, w, set, *old_tag);
      for (std::size_t word = 0; word < words_per_line_; ++word) {
        write_data_word(target, w, set, word, line_buf_[word]);
      }
      // Scrub energy: one line read + one line fill at the new mode.
      charge(kEnergyDynamic, target.way[w].line_fill);
    }
  }

  mode_ = mode;
  std::fill(mru_way_.begin(), mru_way_.end(), 0);
}

void Cache::enable_soft_errors(std::size_t way, double rate_per_bit) {
  expects(way < ways_.size(), "way out of range");
  const std::size_t bits =
      config_.org.sets() * words_per_line_ * stored_data_cw_bits_[way];
  ways_[way].soft_process =
      std::make_unique<SoftErrorProcess>(bits, rate_per_bit);
}

void Cache::advance_time(double seconds) {
  if (seconds <= 0.0) {
    return;
  }
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    if (!table().way[w].active || ways_[w].soft_process == nullptr) {
      continue;
    }
    const auto flips = ways_[w].soft_process->advance(seconds, rng_);
    for (const auto flip : flips) {
      const std::size_t cw = stored_data_cw_bits_[w];
      const std::size_t word_index = flip / cw;
      const std::size_t bit = flip % cw;
      if (word_index < ways_[w].data_words.size()) {
        ways_[w].data_words[word_index] ^= 1ULL << bit;
        ++stats_.soft_errors_injected;
      }
    }
  }
}

void Cache::inject_bit_flip(std::size_t way, std::size_t set,
                            std::size_t bit_in_line) {
  expects(way < ways_.size(), "way out of range");
  expects(set < config_.org.sets(), "set out of range");
  const std::size_t cw = stored_data_cw_bits_[way];
  const std::size_t word = bit_in_line / cw;
  const std::size_t bit = bit_in_line % cw;
  expects(word < words_per_line_, "bit_in_line out of range");
  ways_[way].data_words[data_word_index(set, word)] ^= 1ULL << bit;
  ++stats_.soft_errors_injected;
}

Cache::ScrubReport Cache::scrub() {
  ScrubReport report;
  const ModeTable& t = table();
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    const WayMode& wm = t.way[w];
    if (!wm.active || wm.data_codec == nullptr) {
      continue;
    }
    for (std::size_t set = 0; set < config_.org.sets(); ++set) {
      if (!valid(set, w)) {
        continue;
      }
      ++report.lines_scrubbed;
      charge(kEnergyDynamic, wm.line_read + wm.line_fill);
      charge(kEnergyEdc, static_cast<double>(words_per_line_) *
                             (wm.edc_decode + wm.edc_encode));
      AccessResult scratch;
      bool lost = false;
      for (std::size_t word = 0; word < words_per_line_ && !lost; ++word) {
        const auto value = read_data_word(w, set, word, scratch);
        lost = !value;
        line_buf_[word] = value.value_or(0);
      }
      if (lost) {
        ++report.uncorrectable;
        if (dirty_[slot(set, w)] != 0) {
          ++report.data_loss;
        }
        invalidate(set, w);
        continue;
      }
      report.bits_corrected += scratch.corrected_bits;
      if (scratch.corrected_bits > 0) {
        for (std::size_t word = 0; word < words_per_line_; ++word) {
          write_data_word(t, w, set, word, line_buf_[word]);
        }
      }
    }
  }
  return report;
}

void Cache::flush() {
  for (std::size_t w = 0; w < config_.org.ways; ++w) {
    for (std::size_t set = 0; set < config_.org.sets(); ++set) {
      if (dirty_[slot(set, w)] != 0) {
        writeback_line(w, set);
      }
    }
  }
}

void Cache::reset() {
  std::fill(probe_keys_.begin(), probe_keys_.end(), kProbeInvalid);
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

// --- MemoryLevel: this cache serving as another cache's next level ---

std::size_t Cache::fetch_block(std::uint64_t addr, std::uint32_t* out,
                               std::size_t count) {
  expects(count > 0 && addr % 4 == 0, "fetch_block: aligned non-empty range");
  const std::uint64_t line_addr = addr / config_.org.line_bytes;
  expects((addr + 4 * count - 1) / config_.org.line_bytes == line_addr,
          "fetch_block range must lie within one line of this level");
  ++stats_.accesses;
  ++stats_.loads;
  const ModeTable& t = table();
  charge_lookup(t);
  std::size_t latency = t.hit_latency;

  const std::size_t set = set_of(line_addr);
  AccessResult scratch;
  std::size_t w = find_way(line_addr, set, scratch);
  if (w != config_.org.ways) {
    ++stats_.hits;
    touch(set, w);
  } else {
    ++stats_.misses;
    scratch.latency_cycles = 0;
    w = fill_line(line_addr, set, scratch);
    latency += scratch.latency_cycles;
  }

  // Reads `count` of the line's words: charge the proportional share of a
  // whole-line read (identical to writeback_line when count is the line).
  const std::size_t first_word = word_of(addr);
  charge(kEnergyDynamic,
         t.way[w].line_read * (static_cast<double>(count) /
                               static_cast<double>(words_per_line_)));
  charge(kEnergyEdc, static_cast<double>(count) * t.way[w].edc_decode);
  for (std::size_t i = 0; i < count; ++i) {
    const auto value = read_data_word(w, set, first_word + i, scratch);
    out[i] = value ? *value : next_level_->load_word(addr + 4 * i);
  }
  return latency;
}

std::size_t Cache::writeback_block(std::uint64_t addr,
                                   const std::uint32_t* words,
                                   std::size_t count) {
  expects(count > 0 && addr % 4 == 0,
          "writeback_block: aligned non-empty range");
  const std::uint64_t line_addr = addr / config_.org.line_bytes;
  expects((addr + 4 * count - 1) / config_.org.line_bytes == line_addr,
          "writeback_block range must lie within one line of this level");
  ++stats_.accesses;
  ++stats_.stores;
  const ModeTable& t = table();
  charge_lookup(t);
  std::size_t latency = t.hit_latency;

  const std::size_t first_word = word_of(addr);
  const std::size_t set = set_of(line_addr);
  AccessResult scratch;
  std::size_t w = find_way(line_addr, set, scratch);

  if (w == config_.org.ways) {
    ++stats_.misses;
    if (write_through_) {
      // Write-through/no-allocate: pass the block straight down.
      return latency + next_level_->writeback_block(addr, words, count);
    }
    scratch.latency_cycles = 0;
    // A full-line write allocates without fetching from below; a partial
    // write merges into the fetched line.
    const bool full_line = count == words_per_line_;
    w = fill_line(line_addr, set, scratch, full_line ? words : nullptr);
    latency += scratch.latency_cycles;
    if (full_line) {
      dirty_[slot(set, w)] = 1;
      return latency;  // fill_line wrote (and charged) the whole line
    }
  } else {
    ++stats_.hits;
    touch(set, w);
  }

  for (std::size_t i = 0; i < count; ++i) {
    write_data_word(t, w, set, first_word + i, words[i]);
  }
  charge(kEnergyDynamic, static_cast<double>(count) * t.way[w].word_write);
  charge(kEnergyEdc, static_cast<double>(count) * t.way[w].edc_encode);
  if (write_through_) {
    // Write-through hit: the line is updated in place and the block also
    // goes below; the store buffer hides that latency.
    (void)next_level_->writeback_block(addr, words, count);
  } else {
    dirty_[slot(set, w)] = 1;
  }
  return latency;
}

std::uint32_t Cache::load_word(std::uint64_t addr) {
  return access(addr, AccessType::kLoad).data;
}

std::size_t Cache::store_word(std::uint64_t addr, std::uint32_t value) {
  return access(addr, AccessType::kStore, value).latency_cycles;
}

LevelStats Cache::level_stats() const {
  LevelStats out;
  out.name = config_.name;
  out.accesses = stats_.accesses;
  out.hits = stats_.hits;
  out.misses = stats_.misses;
  out.fills = stats_.fills;
  out.writebacks = stats_.writebacks;
  out.edc_corrections = stats_.edc_corrections;
  out.edc_detected = stats_.edc_detected;
  out.dynamic_energy_j = dynamic_energy_j();
  out.edc_energy_j = edc_energy_j();
  out.leakage_w = leakage_power();
  out.area_um2 = total_area_um2();
  return out;
}

void Cache::clear_level_counters() {
  clear_stats();
  clear_energy();
}

}  // namespace hvc::cache
