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

// SIMD hit probe: the batch fast path compares all ways of a set against
// the probed line address in one vector compare over the per-set probe-key
// row (see Cache::probe_keys_). Uses the portable GCC/Clang vector
// extensions; any other compiler — or -DHVC_NO_SIMD=ON — falls back to the
// scalar row scan, which is bit-identical (the probe is side-effect-free
// either way; only the compare count changes).
#if !defined(HVC_NO_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define HVC_SIMD_PROBE 1
#else
#define HVC_SIMD_PROBE 0
#endif

namespace hvc::cache {

#if HVC_SIMD_PROBE
/// Four probe keys at a time; aligned(8) so rows only need natural
/// std::uint64_t alignment (the compiler emits unaligned vector loads).
typedef std::uint64_t ProbeVec
    __attribute__((vector_size(32), aligned(8)));
#endif

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
  /// reporting hit + latency only. Hits resolve over the packed per-way
  /// arrays with a hoisted per-mode context (geometry, energy handles,
  /// codec/fault dispatch pre-resolved once per mode instead of per
  /// record); misses, write-through passthroughs and fault-perturbed sets
  /// fall back to access(), so ordering-sensitive state transitions stay
  /// exact. Pinned op by op against access() — every stat, every energy
  /// accumulation step, every latency — by tests/test_batch.cpp.
  /// cpu::Core calls it once per record because IL1 and DL1 ops must
  /// interleave in record order (they share a stateful next level).
  void access_batched(std::uint64_t addr, AccessType type,
                      std::uint32_t store_value, bool& hit,
                      std::uint32_t& latency_cycles);

 private:
  /// Scalar re-entry for batch ops the fast path cannot replay (miss,
  /// non-power-of-two geometry, fault-perturbed tag set).
  void access_batched_fallback(std::uint64_t addr, AccessType type,
                               std::uint32_t store_value, bool& hit,
                               std::uint32_t& latency_cycles);
  /// Out-of-line hit tails for ops that need the EDC codec or the
  /// write-through passthrough (the inline fast path covers the plain
  /// uncoded hit, which is the overwhelming majority at HP).
  void batched_store_tail(std::uint64_t addr, std::uint32_t store_value,
                          std::size_t hit_way, std::size_t set,
                          std::size_t widx);
  void batched_load_coded(std::uint64_t addr, std::size_t hit_way,
                          std::size_t set, std::size_t word,
                          std::size_t widx);

 public:

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
  [[nodiscard]] double leakage_power() const noexcept;
  [[nodiscard]] double edc_leakage_power() const noexcept;

  /// Total hit latency at the current mode, including the EDC cycle.
  [[nodiscard]] std::size_t hit_latency() const noexcept;

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  [[nodiscard]] const power::CacheEnergyModel& energy_model() const noexcept;
  [[nodiscard]] double total_area_um2() const noexcept;

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

  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t line_addr = 0;  ///< addr / line_bytes
  };

  struct Way {
    std::vector<Line> lines;  ///< indexed by set
    /// Packed cache-line storage: each stored codeword (data word + check
    /// bits, strongest-protection layout) occupies one 64-bit word of a
    /// contiguous per-way array — no per-line heap objects, no bit-by-bit
    /// copies on the access path.
    std::vector<std::uint64_t> data_words;  ///< sets * words_per_line
    std::vector<std::uint64_t> tag_words;   ///< one per set
    std::unique_ptr<edc::Codec> data_codec_hp;
    std::unique_ptr<edc::Codec> data_codec_ule;
    std::unique_ptr<edc::Codec> tag_codec_hp;
    std::unique_ptr<edc::Codec> tag_codec_ule;
    std::unique_ptr<FaultMap> data_faults;
    std::unique_ptr<FaultMap> tag_faults;
    std::unique_ptr<SoftErrorProcess> soft_process;
  };

  [[nodiscard]] bool way_active(std::size_t w) const noexcept;
  [[nodiscard]] const edc::Codec* data_codec(std::size_t w) const noexcept;
  [[nodiscard]] const edc::Codec* tag_codec(std::size_t w) const noexcept;
  [[nodiscard]] std::size_t set_of(std::uint64_t line_addr) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line_addr) const noexcept;

  /// Tag-probes every active way of `set` for `line_addr`; returns the
  /// hit way, or config_.org.ways on a miss. EDC events encountered while
  /// decoding tags are recorded in `result`.
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

  void write_data_word(std::size_t w, std::size_t set, std::size_t word,
                       std::uint32_t value);
  void write_tag(std::size_t w, std::size_t set, std::uint64_t tag);

  /// Index of (set, word) inside a way's packed data-word array.
  [[nodiscard]] std::size_t data_word_index(std::size_t set,
                                            std::size_t word) const noexcept {
    return set * config_.org.words_per_line() + word;
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

  void init();
  void charge_lookup();

  void charge(EnergyCat category, double joules) noexcept {
    energy_j_[category] += joules;
  }

  /// Marks (set, way) as the set's most recently used line. Called on
  /// every hit and fill; fill_line evicts the active way with the
  /// smallest stamp.
  void touch(std::size_t set, std::size_t way) noexcept {
    lru_stamps_[set * config_.org.ways + way] = ++lru_clock_;
  }

  /// Per-mode constants the batch path hoists out of the per-record loop:
  /// geometry (divisions/modulos pre-reduced to shifts/masks when the
  /// organisation is power-of-two), energy handles, per-way codec and
  /// activity dispatch, and the per-set "tag region fault-free" map that
  /// licenses the exact-probe shortcut. Rebuilt lazily after set_mode();
  /// everything it caches is immutable between mode switches (fault maps
  /// are sampled once per chip, codecs and energy models at init).
  struct BatchCtx {
    bool fast = false;  ///< geometry is power-of-two; fast path armed
    power::Mode mode = power::Mode::kHp;
    std::size_t ways = 0;
    std::size_t sets = 0;
    std::size_t wpl = 0;
    std::uint64_t line_bytes = 0;
    unsigned line_shift = 0;  ///< log2(line_bytes)
    std::uint64_t set_mask = 0;
    std::uint64_t word_mask = 0;  ///< low_mask(org.word_bits)
    std::size_t hit_latency = 0;
    bool write_through = false;
    bool ule = false;
    double lookup_dyn = 0.0;
    /// Per-active-coded-way tag-decode charges, in way order (the FP
    /// accumulation sequence of charge_lookup, replayed add by add).
    std::vector<double> lookup_edc;
    struct WayCtx {
      bool active = false;
      /// Raw views into the owning Way's storage (stable: the vectors
      /// are sized once at construction and never reallocated).
      const Line* lines = nullptr;
      std::uint64_t* data_words = nullptr;
      const edc::Codec* data_codec = nullptr;
      std::size_t data_cw_bits = 0;
      double word_write = 0.0;
      double edc_encode = 0.0;
      double edc_decode = 0.0;
    };
    std::vector<WayCtx> way;
    /// Raw view of the owning cache's probe-key rows (sets * probe_stride,
    /// row-major, sentinel-padded — see probe_keys_ below): the hit probe
    /// compares one row against the probed line address instead of
    /// walking the per-way Line arrays.
    const std::uint64_t* probe_keys = nullptr;
    std::size_t probe_stride = 0;
    /// Per-set most-recent-hit way, probed first. Purely a performance
    /// hint: a stale entry just falls through to the full way probe.
    std::vector<std::uint8_t> mru_way;
    /// tag_clean[set] == 1 when no active way has a stuck bit in this
    /// set's stored tag codeword: the probe `valid && line_addr ==` is
    /// then exactly find_way (tags are always stored as exact codewords —
    /// soft errors only ever touch data words). Sets that fail this take
    /// the scalar path.
    std::vector<std::uint8_t> tag_clean;
  };

  void rebuild_batch_ctx();

  /// Probe-key sentinel: never equal to a real line address (addresses
  /// are at least word-aligned, so line_addr = addr >> line_shift has its
  /// top bits clear). Inactive ways, invalid lines and the row's padding
  /// lanes all hold it, so one equality compare per lane answers
  /// "active && valid && line_addr matches" exactly.
  static constexpr std::uint64_t kProbeInvalid = ~std::uint64_t{0};
  /// Keeps probe_keys_ mirroring (way, set)'s line state; called at every
  /// site that changes a line's valid bit or address.
  void set_probe_key(std::size_t way, std::size_t set,
                     std::uint64_t key) noexcept {
    probe_keys_[set * probe_stride_ + way] = key;
  }

  CacheConfig config_;
  MemoryLevel* next_level_;
  power::Mode mode_ = power::Mode::kHp;
  std::vector<Way> ways_;
  /// True-LRU recency: one stamp per (set, way), row-major by set. The
  /// clock counts touches, so a larger stamp is a more recent use and a
  /// never-touched way keeps stamp 0.
  std::vector<std::uint64_t> lru_stamps_;
  std::uint64_t lru_clock_ = 0;
  std::unique_ptr<power::CacheEnergyModel> hp_model_;
  std::unique_ptr<power::CacheEnergyModel> ule_model_;
  CacheStats stats_;
  double energy_j_[kEnergyCats] = {0.0, 0.0};
  Rng rng_;
  /// Stored codeword widths per way (strongest protection, physical layout).
  std::vector<std::size_t> stored_data_cw_bits_;
  std::vector<std::size_t> stored_tag_cw_bits_;
  /// Reusable line-sized word buffer for fills/write-backs (no per-miss
  /// allocation; fill and write-back of one cache never overlap).
  std::vector<std::uint32_t> line_buf_;
  /// Per-word decodability flags of the line in line_buf_ (write-backs
  /// skip unrecoverable words so the next level keeps its stale copy).
  std::vector<std::uint8_t> line_word_ok_;
  /// Hit-probe keys, one padded row per set (row-major, probe_stride_
  /// entries): probe_keys_[set * stride + way] is the line address stored
  /// in (way, set) when that line is valid, else kProbeInvalid. The rows
  /// are what the batch path's SIMD probe compares — a structure-of-arrays
  /// twin of the scattered per-way Line arrays that puts a whole set's
  /// tags in one cache line (stride is padded to the vector width so the
  /// last lanes of a row are sentinel, never out-of-bounds).
  std::vector<std::uint64_t> probe_keys_;
  std::size_t probe_stride_ = 0;
  /// Hoisted batch-path context; valid_ goes false on mode switches.
  BatchCtx batch_ctx_;
  bool batch_ctx_valid_ = false;
};

// Defined here (not in cache.cpp) so the per-record replay loops in
// cpu::Core inline the probe and the plain-hit replay; only misses and
// codec/write-through tails leave the caller's frame. The sequence of
// stat increments and FP energy adds below is EXACTLY the access() hit
// sequence with its constants pre-resolved — reordering or merging any
// of the adds breaks the bit-identity pin (test_batch).
inline void Cache::access_batched(std::uint64_t addr, AccessType type,
                                  std::uint32_t store_value, bool& hit,
                                  std::uint32_t& latency_cycles) {
  if (!batch_ctx_valid_) {
    rebuild_batch_ctx();
    batch_ctx_valid_ = true;
  }
  BatchCtx& ctx = batch_ctx_;
  if (!ctx.fast) {
    access_batched_fallback(addr, type, store_value, hit, latency_cycles);
    return;
  }

  const std::uint64_t line_addr = addr >> ctx.line_shift;
  const std::size_t set = static_cast<std::size_t>(line_addr & ctx.set_mask);

  // Exact-probe shortcut: side-effect-free, so a miss (or a set the
  // shortcut can't prove clean) re-enters through the scalar path with
  // nothing to unwind. The per-set MRU hint is checked first — runs of
  // accesses to the same line resolve in one compare; on a hint mismatch
  // the whole probe row (active+valid+address folded into one key per
  // way) is compared at once. A matching lane is unique: a set never
  // holds the same line in two ways (fills happen on misses only).
  std::size_t hit_way = ctx.ways;
  if (ctx.tag_clean[set] != 0) {
    const std::uint64_t* row = ctx.probe_keys + set * ctx.probe_stride;
    const std::size_t hint = ctx.mru_way[set];
    if (row[hint] == line_addr) {
      hit_way = hint;
    } else {
#if HVC_SIMD_PROBE
      const ProbeVec needle = {line_addr, line_addr, line_addr, line_addr};
      for (std::size_t base = 0; base < ctx.probe_stride; base += 4) {
        const ProbeVec eq =
            *reinterpret_cast<const ProbeVec*>(row + base) == needle;
        if ((eq[0] | eq[1] | eq[2] | eq[3]) != 0) {
          hit_way = base + (eq[0] != 0   ? 0u
                            : eq[1] != 0 ? 1u
                            : eq[2] != 0 ? 2u
                                         : 3u);
          ctx.mru_way[set] = static_cast<std::uint8_t>(hit_way);
          break;
        }
      }
#else
      for (std::size_t w = 0; w < ctx.ways; ++w) {
        if (row[w] == line_addr) {
          hit_way = w;
          ctx.mru_way[set] = static_cast<std::uint8_t>(w);
          break;
        }
      }
#endif
    }
  }
  if (hit_way == ctx.ways) {
    access_batched_fallback(addr, type, store_value, hit, latency_cycles);
    return;
  }

  // --- hit: the scalar sequence with the constants pre-resolved ---
  ++stats_.accesses;
  switch (type) {
    case AccessType::kLoad: ++stats_.loads; break;
    case AccessType::kStore: ++stats_.stores; break;
    case AccessType::kIfetch: ++stats_.ifetches; break;
  }
  energy_j_[kEnergyDynamic] += ctx.lookup_dyn;
  for (const double joules : ctx.lookup_edc) {
    energy_j_[kEnergyEdc] += joules;
  }
  hit = true;
  latency_cycles = static_cast<std::uint32_t>(ctx.hit_latency);
  ++stats_.hits;
  touch(set, hit_way);

  const BatchCtx::WayCtx& wc = ctx.way[hit_way];
  const std::size_t word = static_cast<std::size_t>(
      (addr & (ctx.line_bytes - 1)) >> 2);
  const std::size_t widx = set * ctx.wpl + word;
  if (type == AccessType::kStore) {
    if (wc.data_codec != nullptr || ctx.write_through) {
      batched_store_tail(addr, store_value, hit_way, set, widx);
      return;
    }
    wc.data_words[widx] = store_value & ctx.word_mask;
    energy_j_[kEnergyDynamic] += wc.word_write;
    energy_j_[kEnergyEdc] += wc.edc_encode;
    ways_[hit_way].lines[set].dirty = true;
    return;
  }

  energy_j_[kEnergyEdc] += wc.edc_decode;
  if (wc.data_codec == nullptr) {
    // Uncoded read: the scalar path masks and returns the raw word with
    // no stats/energy traffic — nothing further to replay.
    return;
  }
  batched_load_coded(addr, hit_way, set, word, widx);
}

}  // namespace hvc::cache
