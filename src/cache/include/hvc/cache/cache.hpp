// Bit-accurate hybrid-voltage set-associative cache simulator.
//
// This is the paper's proposed architecture (Figure 1) as an executable
// model: heterogeneous ways (6T HP ways, 8T/10T ULE ways), per-mode EDC
// (none/SECDED/DECTED) on 32-bit data words and 26-bit tags, gated-Vdd way
// shutdown at ULE mode, true LRU replacement over the active ways of a
// set, and bit-level hard/soft fault injection so the EDC datapath is
// exercised end to end.
//
// Every tag and data word is stored as its real codeword bits. Reads pull
// the raw bits through the fault map, decode them, and report corrections;
// a detected-uncorrectable tag forces a miss, a detected-uncorrectable
// data word falls back to memory (counted — with properly sized cells this
// must never happen, which is the paper's predictability argument).
//
// Each fact is held once. Everything that depends on the operating mode —
// which ways are powered, each way's data/tag codec and per-event
// energies, the lookup charge, hit latency and leakage — lives in one
// ModeTable per mode, built in the constructor; the codecs are the shared
// immutable instances of edc::shared_codec. Which line a (set, way) holds
// lives only in the probe-key rows; a line keeps just its dirty bit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hvc/cache/fault.hpp"
#include "hvc/cache/memory.hpp"
#include "hvc/cache/memory_level.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/common/stats.hpp"
#include "hvc/power/cache_power.hpp"

namespace hvc::cache {

// AccessType / AccessResult live in memory_level.hpp (the shared access
// contract of every hierarchy level).

enum class WritePolicy { kWriteBackAllocate, kWriteThroughNoAllocate };

/// Static configuration of one cache instance.
struct CacheConfig {
  std::string name = "L1";
  power::CacheOrg org;
  std::vector<power::WayPlan> ways;
  WritePolicy write_policy = WritePolicy::kWriteBackAllocate;
  std::size_t hit_latency_cycles = 1;
  /// Extra encode/decode pipeline latency when EDC is active (paper IV-A3:
  /// one clock cycle).
  std::size_t edc_latency_cycles = 1;
  /// Operating points for the two modes (paper IV-A2).
  power::OperatingPoint hp{power::Mode::kHp, 1.0, 1e9};
  power::OperatingPoint ule{power::Mode::kUle, 0.35, 5e6};
  /// Per-bit hard fault probability for each way's arrays, evaluated at
  /// the worst voltage the way must operate at. Empty = fault-free.
  std::vector<double> way_hard_pf;
  std::uint64_t fault_seed = 12345;
};

/// Event counters.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t fills = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t edc_corrections = 0;
  std::uint64_t edc_detected = 0;
  std::uint64_t mode_switch_writebacks = 0;
  std::uint64_t soft_errors_injected = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

class Cache : public MemoryLevel {
 public:
  /// Builds a cache that misses into an arbitrary next level (another
  /// Cache, or a MainMemoryLevel terminal). The next level must outlive
  /// this cache; miss latency is whatever it reports per request.
  Cache(CacheConfig config, MemoryLevel& next_level, Rng& rng);

  /// Performs one access at the current mode. Functionally exact: loads
  /// return the value the program would see. This is the reference path
  /// and the miss path of access_batched().
  AccessResult access(std::uint64_t addr, AccessType type,
                      std::uint32_t store_value = 0) override;

  /// The replay loop's entry point: identical side effects to access(),
  /// reporting hit + latency only. A hit is found by one side-effect-free
  /// probe over the set's probe-key row and replayed with the current
  /// mode's table; misses, write-through passthroughs, sets whose stored
  /// tags touch stuck bits and non-power-of-two geometry fall back to
  /// access(), so ordering-sensitive state transitions stay exact. Pinned
  /// op by op against access() — every stat, every energy accumulation
  /// step, every latency — by tests/test_batch.cpp. cpu::Core calls it
  /// once per record because IL1 and DL1 ops must interleave in record
  /// order (they share a stateful next level).
  void access_batched(std::uint64_t addr, AccessType type,
                      std::uint32_t store_value, bool& hit,
                      std::uint32_t& latency_cycles);

  /// Switches operating mode. HP->ULE writes back dirty HP-way lines and
  /// invalidates them (gated-Vdd loses content); ULE->HP keeps ULE ways.
  void set_mode(power::Mode mode) override;
  [[nodiscard]] power::Mode mode() const noexcept { return mode_; }

  /// Arms Poisson soft-error injection on one way's data array with the
  /// given per-bit rate (errors/second); see tech::soft_error_rate_per_bit.
  void enable_soft_errors(std::size_t way, double rate_per_bit);

  /// Injects Poisson soft errors for `seconds` of wall-clock time into all
  /// powered arrays.
  void advance_time(double seconds);

  /// Explicit single soft-error injection (tests / fault-injection demos):
  /// flips a stored bit of the given way/set.
  void inject_bit_flip(std::size_t way, std::size_t set, std::size_t bit_in_line);

  /// Scrub pass: reads, decodes, re-encodes and rewrites every valid line
  /// of the powered ways, clearing accumulated correctable soft errors
  /// before a second strike makes them uncorrectable. Returns the number
  /// of corrected bits. Lines that are already uncorrectable are
  /// invalidated (clean) or refetched conceptually by the next miss;
  /// dirty uncorrectable lines count as data loss in `scrub_data_loss`.
  /// (ScrubReport lives at namespace scope so every MemoryLevel shares it;
  /// the nested name is kept for existing callers.)
  using ScrubReport = cache::ScrubReport;
  ScrubReport scrub() override;

  /// Writes back every dirty line (used at simulation end). Flushes this
  /// level only; sim::System drains a hierarchy top-down (L1s, then L2).
  void flush() override;

  /// Invalidate everything without writeback (power-on state).
  void reset() override;

  // --- MemoryLevel: serving as another cache's next level ---
  [[nodiscard]] const std::string& level_name() const noexcept override {
    return config_.name;
  }
  /// One logical read access of this level covering `count` words of one
  /// line (an upper level's fill). Counts as a single load access.
  std::size_t fetch_block(std::uint64_t addr, std::uint32_t* out,
                          std::size_t count) override;
  /// One logical write access covering `count` words of one line (an upper
  /// level's dirty write-back). Write-allocates on a miss; a full-line
  /// write allocates without fetching from below.
  std::size_t writeback_block(std::uint64_t addr, const std::uint32_t* words,
                              std::size_t count) override;
  [[nodiscard]] std::uint32_t load_word(std::uint64_t addr) override;
  std::size_t store_word(std::uint64_t addr, std::uint32_t value) override;
  [[nodiscard]] LevelStats level_stats() const override;
  void clear_level_counters() override;

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void clear_stats() noexcept { stats_ = CacheStats{}; }

  /// Accumulated dynamic/EDC energy in joules since the last clear, as a
  /// named breakdown for reports. The per-access hot path charges plain
  /// doubles (see EnergyCat); names exist only here.
  [[nodiscard]] Breakdown energy() const;
  [[nodiscard]] double dynamic_energy_j() const noexcept {
    return energy_j_[kEnergyDynamic];
  }
  [[nodiscard]] double edc_energy_j() const noexcept {
    return energy_j_[kEnergyEdc];
  }
  [[nodiscard]] double total_energy_j() const noexcept {
    return energy_j_[kEnergyDynamic] + energy_j_[kEnergyEdc];
  }
  void clear_energy() noexcept { energy_j_[0] = energy_j_[1] = 0.0; }

  /// Static power (W) at the current mode, split into array and EDC parts.
  [[nodiscard]] double leakage_power() const noexcept {
    return table().leakage_w;
  }
  [[nodiscard]] double edc_leakage_power() const noexcept {
    return table().edc_leakage_w;
  }

  /// Total hit latency at the current mode, including the EDC cycle.
  [[nodiscard]] std::size_t hit_latency() const noexcept {
    return table().hit_latency;
  }

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  /// Silicon area (um^2), check-bit columns and EDC logic included; the
  /// same at both modes.
  [[nodiscard]] double total_area_um2() const noexcept { return area_um2_; }

  /// True when the line at (way, set) is valid (inspection for tests).
  [[nodiscard]] bool line_valid(std::size_t way, std::size_t set) const;

 private:
  /// Pre-resolved energy-category handles: the per-access hot path
  /// accumulates into a flat array instead of a string-keyed map.
  enum EnergyCat : std::size_t {
    kEnergyDynamic = 0,
    kEnergyEdc = 1,
    kEnergyCats = 2,
  };

  struct Way {
    /// Packed cache-line storage: each stored codeword (data word + check
    /// bits, strongest-protection layout) occupies one 64-bit word of a
    /// contiguous per-way array — no per-line heap objects, no bit-by-bit
    /// copies on the access path.
    std::vector<std::uint64_t> data_words;  ///< sets * words_per_line
    std::vector<std::uint64_t> tag_words;   ///< one per set
    std::unique_ptr<FaultMap> data_faults;
    std::unique_ptr<FaultMap> tag_faults;
    std::unique_ptr<SoftErrorProcess> soft_process;
  };

  /// One way at one mode: whether it is powered, its codecs (the shared
  /// instances of edc::shared_codec; nullptr = uncoded) and the energy of
  /// each event it takes part in, in joules.
  struct WayMode {
    bool active = false;
    const edc::Codec* data_codec = nullptr;
    const edc::Codec* tag_codec = nullptr;
    double word_write = 0.0;
    double line_fill = 0.0;
    double line_read = 0.0;
    double edc_encode = 0.0;
    double edc_decode = 0.0;
  };

  /// Every mode-dependent constant of the cache, built for both modes in
  /// the constructor from that mode's power::CacheEnergyModel and never
  /// changed afterwards; set_mode only selects the other table.
  struct ModeTable {
    std::vector<WayMode> way;
    /// Dynamic energy of one lookup (all active ways read in parallel).
    double lookup_dyn = 0.0;
    /// Tag-decode energy of each active coded way, in way order: the
    /// lookup's EDC charge, added one by one in this order.
    std::vector<double> lookup_edc;
    std::size_t hit_latency = 0;
    double leakage_w = 0.0;
    double edc_leakage_w = 0.0;
    /// tag_clean[set] == 1 when no active way has a stuck bit in this
    /// set's stored tag codeword, so the probe-key compare is exactly
    /// find_way (tags are stored as exact codewords; soft errors only hit
    /// data words). Hard faults manifest at ULE only, so the HP map is
    /// all ones; sets that fail it take the scalar path.
    std::vector<std::uint8_t> tag_clean;
  };

  [[nodiscard]] ModeTable build_mode_table(
      const power::CacheEnergyModel& model) const;
  [[nodiscard]] const ModeTable& table_for(power::Mode mode) const noexcept {
    return modes_[mode == power::Mode::kHp ? 0 : 1];
  }
  [[nodiscard]] const ModeTable& table() const noexcept {
    return table_for(mode_);
  }

  /// Index of (set, way) in the row-major per-line arrays (probe keys,
  /// dirty bits, LRU stamps).
  [[nodiscard]] std::size_t slot(std::size_t set, std::size_t way) const noexcept {
    return set * config_.org.ways + way;
  }
  [[nodiscard]] bool valid(std::size_t set, std::size_t way) const noexcept {
    return probe_keys_[slot(set, way)] != kProbeInvalid;
  }
  void invalidate(std::size_t set, std::size_t way) noexcept {
    probe_keys_[slot(set, way)] = kProbeInvalid;
    dirty_[slot(set, way)] = 0;
  }

  [[nodiscard]] std::size_t set_of(std::uint64_t line_addr) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line_addr) const noexcept;

  /// Tag-probes every way of `set` for `line_addr`; returns the hit way,
  /// or config_.org.ways on a miss. EDC events encountered while decoding
  /// tags are recorded in `result`.
  [[nodiscard]] std::size_t find_way(std::uint64_t line_addr, std::size_t set,
                                     AccessResult& result);

  /// Reads and decodes the tag of (way,set); nullopt when invalid or the
  /// tag is uncorrectable.
  [[nodiscard]] std::optional<std::uint64_t> read_tag(std::size_t w,
                                                      std::size_t set,
                                                      AccessResult& result);
  /// Reads and decodes data word `word` of (way,set).
  [[nodiscard]] std::optional<std::uint32_t> read_data_word(
      std::size_t w, std::size_t set, std::size_t word, AccessResult& result);

  /// Encode and store with the codecs of table `t` (the current mode's,
  /// or the target mode's while set_mode re-encodes).
  void write_data_word(const ModeTable& t, std::size_t w, std::size_t set,
                       std::size_t word, std::uint32_t value);
  void write_tag(const ModeTable& t, std::size_t w, std::size_t set,
                 std::uint64_t tag);

  /// Store into a present line: encode, charge, then write through or
  /// mark the line dirty. Shared by every store hit and store fill.
  void store_to_line(std::uint64_t addr, std::uint32_t value, std::size_t w,
                     std::size_t set);
  /// Load from a present line: decode charge, decode, and the next-level
  /// fallback for an uncorrectable word. Shared likewise.
  void load_from_line(std::uint64_t addr, std::size_t w, std::size_t set,
                      AccessResult& result);

  /// Index of (set, word) inside a way's packed data-word array.
  [[nodiscard]] std::size_t data_word_index(std::size_t set,
                                            std::size_t word) const noexcept {
    return set * words_per_line_ + word;
  }
  [[nodiscard]] std::size_t word_of(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>(addr % config_.org.line_bytes) / 4;
  }

  /// Bit offset of (set, word) inside a way's data fault map.
  [[nodiscard]] std::size_t data_bit_base(std::size_t w, std::size_t set,
                                          std::size_t word) const noexcept;
  [[nodiscard]] std::size_t tag_bit_base(std::size_t w,
                                         std::size_t set) const noexcept;

  /// Allocates a line: victim selection, dirty-victim write-back, tag
  /// write. With `incoming == nullptr` the content is fetched from the
  /// next level (the fetch latency is added to `result.latency_cycles`);
  /// otherwise `incoming` supplies the full line and no fetch happens
  /// (full-line write-allocate). Returns the victim way.
  std::size_t fill_line(std::uint64_t line_addr, std::size_t set,
                        AccessResult& result,
                        const std::uint32_t* incoming = nullptr);
  void writeback_line(std::size_t w, std::size_t set);

  /// The lookup charge of every access: the dynamic read, then one tag
  /// decode per active coded way in way order.
  void charge_lookup(const ModeTable& t) noexcept {
    energy_j_[kEnergyDynamic] += t.lookup_dyn;
    for (const double joules : t.lookup_edc) {
      energy_j_[kEnergyEdc] += joules;
    }
  }

  void charge(EnergyCat category, double joules) noexcept {
    energy_j_[category] += joules;
  }

  /// Marks (set, way) as the set's most recently used line. Called on
  /// every hit and fill; fill_line evicts the active way with the
  /// smallest stamp.
  void touch(std::size_t set, std::size_t way) noexcept {
    lru_stamps_[slot(set, way)] = ++lru_clock_;
  }

  /// Access the batch path cannot replay: runs access() and reports it.
  void access_batched_fallback(std::uint64_t addr, AccessType type,
                               std::uint32_t store_value, bool& hit,
                               std::uint32_t& latency_cycles);

  /// Probe-key value of an invalid line. Never equal to a real line
  /// address (addresses are at least word-aligned, so line_addr = addr /
  /// line_bytes has its top bits clear), so one equality compare answers
  /// "valid && line_addr matches". Gated ways always hold it: HP->ULE
  /// invalidates them and fills only pick active ways.
  static constexpr std::uint64_t kProbeInvalid = ~std::uint64_t{0};

  CacheConfig config_;
  MemoryLevel* next_level_;
  power::Mode mode_ = power::Mode::kHp;
  ModeTable modes_[2];  ///< [0] = HP, [1] = ULE; see table_for()
  double area_um2_ = 0.0;
  std::vector<Way> ways_;
  /// The only record of which line each (set, way) holds, row-major by
  /// set (see slot()): its line address, or kProbeInvalid. One row is
  /// what the hit probe scans.
  std::vector<std::uint64_t> probe_keys_;
  /// Dirty bit per (set, way). Only a valid line of a write-back cache
  /// is ever dirty: every invalidation clears it, and write-through
  /// stores go below instead.
  std::vector<std::uint8_t> dirty_;
  /// True-LRU recency per (set, way). The clock counts touches, so a
  /// larger stamp is a more recent use and a never-touched way keeps
  /// stamp 0.
  std::vector<std::uint64_t> lru_stamps_;
  std::uint64_t lru_clock_ = 0;
  /// Per-set most-recent-hit way, probed first. Purely a hint: a stale
  /// entry falls through to the row scan. It is cleared on a mode switch,
  /// because a set whose ULE tags are faulty can hold one line in two
  /// ways, and the probe must then return the first of them, as find_way
  /// does.
  std::vector<std::uint8_t> mru_way_;
  CacheStats stats_;
  double energy_j_[kEnergyCats] = {0.0, 0.0};
  Rng rng_;
  /// Address decode of the batch probe: shift/mask, armed only when the
  /// line size and set count are powers of two (others run scalar).
  bool pow2_geometry_ = false;
  unsigned line_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::size_t words_per_line_ = 0;
  std::uint64_t word_mask_ = 0;  ///< low_mask(org.word_bits)
  bool write_through_ = false;
  /// Stored codeword widths per way (strongest protection, physical layout).
  std::vector<std::size_t> stored_data_cw_bits_;
  std::vector<std::size_t> stored_tag_cw_bits_;
  /// Reusable line-sized word buffer for fills, write-backs, scrubs and
  /// mode-switch re-encodes (none of them overlaps another).
  std::vector<std::uint32_t> line_buf_;
  /// Per-word decodability flags of the line in line_buf_ (write-backs
  /// skip unrecoverable words so the next level keeps its stale copy).
  std::vector<std::uint8_t> line_word_ok_;
};

// Defined here (not in cache.cpp) so the per-record replay loops in
// cpu::Core inline the probe and the plain-hit replay; only misses and
// codec/write-through tails leave the caller's frame. The sequence of
// stat increments and FP energy adds below is EXACTLY the access() hit
// sequence with its constants read from the mode table — reordering or
// merging any of the adds breaks the bit-identity pin (test_batch).
inline void Cache::access_batched(std::uint64_t addr, AccessType type,
                                  std::uint32_t store_value, bool& hit,
                                  std::uint32_t& latency_cycles) {
  if (!pow2_geometry_) {
    access_batched_fallback(addr, type, store_value, hit, latency_cycles);
    return;
  }
  const ModeTable& t = table();
  const std::size_t ways = config_.org.ways;
  const std::uint64_t line_addr = addr >> line_shift_;
  const std::size_t set = static_cast<std::size_t>(line_addr & set_mask_);

  // The probe is side-effect-free, so a miss (or a set whose tags it
  // can't trust) re-enters through the scalar path with nothing to
  // unwind. The MRU hint resolves runs of accesses to one line in one
  // compare; otherwise the row is scanned in way order, so the first
  // matching way wins, as in find_way.
  std::size_t hit_way = ways;
  if (t.tag_clean[set] != 0) {
    const std::uint64_t* row = probe_keys_.data() + set * ways;
    const std::size_t hint = mru_way_[set];
    if (row[hint] == line_addr) {
      hit_way = hint;
    } else {
      for (std::size_t w = 0; w < ways; ++w) {
        if (row[w] == line_addr) {
          hit_way = w;
          mru_way_[set] = static_cast<std::uint8_t>(w);
          break;
        }
      }
    }
  }
  if (hit_way == ways) {
    access_batched_fallback(addr, type, store_value, hit, latency_cycles);
    return;
  }

  // --- hit: the scalar sequence with the constants read from the table ---
  ++stats_.accesses;
  switch (type) {
    case AccessType::kLoad: ++stats_.loads; break;
    case AccessType::kStore: ++stats_.stores; break;
    case AccessType::kIfetch: ++stats_.ifetches; break;
  }
  charge_lookup(t);
  hit = true;
  latency_cycles = static_cast<std::uint32_t>(t.hit_latency);
  ++stats_.hits;
  touch(set, hit_way);

  const WayMode& wm = t.way[hit_way];
  if (type == AccessType::kStore) {
    if (wm.data_codec != nullptr || write_through_) {
      store_to_line(addr, store_value, hit_way, set);
      return;
    }
    const std::size_t word = static_cast<std::size_t>(
        (addr & (config_.org.line_bytes - 1)) >> 2);
    ways_[hit_way].data_words[data_word_index(set, word)] =
        store_value & word_mask_;
    energy_j_[kEnergyDynamic] += wm.word_write;
    energy_j_[kEnergyEdc] += wm.edc_encode;
    dirty_[slot(set, hit_way)] = 1;
    return;
  }
  if (wm.data_codec == nullptr) {
    // Uncoded read: the scalar path charges the (zero) decode energy and
    // returns the raw word with no stats traffic.
    energy_j_[kEnergyEdc] += wm.edc_decode;
    return;
  }
  AccessResult scratch;
  load_from_line(addr, hit_way, set, scratch);
}

}  // namespace hvc::cache
