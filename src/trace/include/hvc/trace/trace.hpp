// Trace capture for workload kernels.
//
// The paper drives its evaluation with MediaBench programs through the
// MPSim full-chip simulator. Our substitution: the workloads in
// hvc::wl are real codec kernels written against *traced memory* — typed
// arrays whose every element access is recorded — plus synthetic code
// blocks that emit instruction-fetch streams with realistic locality
// (small hot loops, larger cold prologues). The resulting trace is what
// the CPU timing model replays against the IL1/DL1 simulators.
//
// Address map: code starts at kCodeBase, data allocations at kDataBase;
// both grow upward and never overlap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"

namespace hvc::trace {

/// Default number of records pulled and stepped per block by the replay
/// loops (cpu::Core::run, sim::System::run_mix). Any block size, 1
/// included, replays bit-identically; the size only amortizes dispatch.
inline constexpr std::size_t kReplayBlockRecords = 256;

enum class Kind : std::uint8_t {
  kIfetch,  ///< one instruction fetch (one executed instruction)
  kLoad,    ///< data read
  kStore,   ///< data write
  kBranch,  ///< control-flow marker at the end of a block (no cache access)
};

struct Record {
  Kind kind = Kind::kIfetch;
  bool taken = false;  ///< for kBranch: backward/taken branch
  std::uint64_t addr = 0;
};

/// Aggregate shape of a trace (used by tests and reports).
struct TraceStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t data_footprint_bytes = 0;
  std::uint64_t code_footprint_bytes = 0;
};

class Tracer;

/// Pull interface over a stream of trace records. The CPU timing model
/// (cpu::Core::run, sim::System::run_trace/run_mix) consumes traces
/// through this interface only, one block at a time, so a replay's
/// memory footprint is bounded by the source's own window — an on-disk
/// trace of any length replays without materializing a std::vector of
/// every record (see TraceFileSource in trace_file.hpp).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls the next record into `out`; returns false at end of trace
  /// (and leaves `out` untouched).
  virtual bool next(Record& out) = 0;

  /// Pulls up to `max` records into `out`; returns how many were
  /// delivered (< max only at end of trace). Equivalent to `max` next()
  /// calls — the default is exactly that loop — but overridable so
  /// sources can amortize per-record dispatch/decode across a block
  /// (MemoryTraceSource and TraceFileSource decode a run of records
  /// through one PayloadDecoder call).
  virtual std::size_t next_batch(Record* out, std::size_t max) {
    std::size_t produced = 0;
    while (produced < max && next(out[produced])) {
      ++produced;
    }
    return produced;
  }

  /// Exact number of records the source will deliver after a reset(), or
  /// 0 when unknown. Drivers use it for progress/reservation only, never
  /// for termination — next() returning false ends a replay.
  [[nodiscard]] virtual std::uint64_t size_hint() const noexcept = 0;

  /// Rewinds to the first record (replay-many).
  virtual void reset() = 0;
};

// ---------------------------------------------------------------------
// .hvct on-disk trace format, version 1 (implemented in trace_file.hpp)
// ---------------------------------------------------------------------
// A .hvct file is header + payload + footer, all integers little-endian:
//
//   header (12 bytes):
//     bytes 0-3   magic "HVCT"
//     bytes 4-5   u16 format version (currently 1)
//     bytes 6-7   u16 flags (must be 0 in version 1)
//     bytes 8-11  u32 reserved (0)
//
//   payload: one entry per record, in trace order:
//     tag byte:   bits 0-1  kind (0 = ifetch, 1 = load, 2 = store,
//                           3 = branch)
//                 bit 2     taken (branch records only; must be 0 for
//                           every other kind)
//                 bits 3-7  reserved, must be 0
//     address:    LEB128 varint of the zigzag-encoded signed delta from
//                 the previous address of the same stream class. Two
//                 delta chains run through the payload: ifetch/branch
//                 records delta against the last *code* address,
//                 load/store records against the last *data* address;
//                 both chains start at 0. Sequential fetch streams and
//                 strided data streams therefore encode in 2-3 bytes
//                 per record (vs 16 as a Record). A Tracer holds its
//                 capture in this payload form too (EncodedRecords).
//
//   footer (72 bytes):
//     bytes 0-3   magic "HVCF"
//     bytes 4-7   u32 reserved (0)
//     bytes 8-15  u64 record count
//     bytes 16-71 TraceStats: u64 instructions, loads, stores, branches,
//                 taken_branches, data_footprint_bytes,
//                 code_footprint_bytes — exactly Tracer::stats() of the
//                 recorded stream, so replay tools can report a trace's
//                 shape without decoding the payload.
//
// Integrity: readers validate both magics, the version, zero flags/
// reserved bits, that the payload decodes to exactly `record count`
// records ending exactly at the footer boundary (no reserved tag bit, no
// taken flag off a branch, no varint past 64 bits), and that the stats
// kind-counts sum to the record count. Any mismatch throws ConfigError.
// ---------------------------------------------------------------------

/// Longest encoded record: a tag byte plus a 10-byte varint.
inline constexpr std::size_t kMaxRecordBytes = 11;

/// Running TraceStats of a record stream, one add() per record.
class TraceTally {
 public:
  void add(Kind kind, bool taken, std::uint64_t addr) noexcept {
    ++counts_[static_cast<std::size_t>(kind)];
    taken_branches_ += taken ? 1 : 0;
    if (kind == Kind::kIfetch) {
      code_lo_ = std::min(code_lo_, addr);
      code_hi_ = std::max(code_hi_, addr + 4);
    } else if (kind != Kind::kBranch) {
      data_lo_ = std::min(data_lo_, addr);
      data_hi_ = std::max(data_hi_, addr + 4);
    }
  }
  [[nodiscard]] TraceStats stats() const noexcept;

 private:
  std::uint64_t counts_[4] = {0, 0, 0, 0};  ///< indexed by Kind
  std::uint64_t taken_branches_ = 0;
  std::uint64_t data_lo_ = ~0ULL, data_hi_ = 0;
  std::uint64_t code_lo_ = ~0ULL, code_hi_ = 0;
};

/// The payload encoder: the two delta chains and the running stats of
/// everything encoded so far. It is the only code that writes the
/// format: TraceWriter encodes into its file window through it, and a
/// Tracer into its in-memory payload.
class PayloadEncoder {
 public:
  /// Encodes one record at `out`, which must have kMaxRecordBytes of
  /// room, and returns one past its last byte. Only a branch carries its
  /// taken flag.
  std::uint8_t* put(Kind kind, bool taken, std::uint64_t addr,
                    std::uint8_t* out) noexcept {
    const bool data = kind == Kind::kLoad || kind == Kind::kStore;
    std::uint64_t& last = data ? last_data_ : last_code_;
    const auto delta = static_cast<std::int64_t>(addr - last);
    std::uint64_t value = (static_cast<std::uint64_t>(delta) << 1) ^
                          static_cast<std::uint64_t>(delta >> 63);
    last = addr;
    ++records_;
    const bool taken_branch = taken && kind == Kind::kBranch;
    tally_.add(kind, taken_branch, addr);
    *out++ = static_cast<std::uint8_t>(static_cast<unsigned>(kind) |
                                       (taken_branch ? 0x04u : 0u));
    while (value >= 0x80) {
      *out++ = static_cast<std::uint8_t>(value) | 0x80;
      value >>= 7;
    }
    *out++ = static_cast<std::uint8_t>(value);
    return out;
  }

  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] TraceStats stats() const noexcept { return tally_.stats(); }

 private:
  std::uint64_t records_ = 0;
  std::uint64_t last_code_ = 0;
  std::uint64_t last_data_ = 0;
  TraceTally tally_;
};

/// The payload decoder, one block of records per call. MemoryTraceSource
/// decodes a Tracer's payload through it, TraceFileSource its read
/// window and fsck_trace its scan, so every reader makes the same checks.
class PayloadDecoder {
 public:
  /// What makes a record malformed. Each has its ConfigError text
  /// (describe()).
  enum class Fault : std::uint8_t {
    kNone,
    kReservedTagBits,
    kTakenNonBranch,
    kOverlongVarint,
  };

  /// Decodes whole records from [pos, end) into `out`, at most `max`,
  /// and advances `pos` past them. It stops early at a record that `end`
  /// cuts in two, or at a malformed one (fault() says why); `pos` then
  /// points at that record's tag byte.
  std::size_t decode(const std::uint8_t*& pos, const std::uint8_t* end,
                     Record* out, std::size_t max) noexcept;

  [[nodiscard]] Fault fault() const noexcept { return fault_; }
  [[nodiscard]] static const char* describe(Fault fault) noexcept;

  /// Restarts both delta chains (a replay from the first record).
  void reset() noexcept { *this = PayloadDecoder(); }

 private:
  std::uint64_t last_[2] = {0, 0};  ///< code chain, data chain
  Fault fault_ = Fault::kNone;
};

/// A captured trace in its in-memory form: the payload bytes, encoded as
/// the records are captured. size() counts records, bytes() the payload.
/// The bytes live in an anonymous mapping of their own, not in the heap:
/// a capture can be tens of MB, and in a heap arena its pages would stay
/// resident after it is freed, as many as the allocator's trim threshold
/// allows, so a process's peak memory would depend on which thread freed
/// which capture. A mapping goes back to the system when it is freed,
/// and grows by remapping instead of copying.
class EncodedRecords {
 public:
  EncodedRecords() = default;
  ~EncodedRecords();
  /// Moves leave the source empty, payload and counts alike.
  EncodedRecords(EncodedRecords&& other) noexcept;
  EncodedRecords& operator=(EncodedRecords&& other) noexcept;

  void append(Kind kind, bool taken, std::uint64_t addr) {
    if (capacity_ - used_ < kMaxRecordBytes) [[unlikely]] {
      grow(2 * capacity_);
    }
    used_ = static_cast<std::size_t>(
        encoder_.put(kind, taken, addr, bytes_ + used_) - bytes_);
  }
  /// Makes room for `bytes` more payload bytes without reallocating.
  void reserve(std::size_t bytes) {
    if (capacity_ - used_ < bytes) {
      grow(used_ + bytes);
    }
  }

  [[nodiscard]] std::uint64_t size() const noexcept {
    return encoder_.records();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return used_; }
  /// The encoder state after the last record (delta chains and stats).
  [[nodiscard]] const PayloadEncoder& encoder() const noexcept {
    return encoder_;
  }

 private:
  /// Moves the payload into a mapping of at least `capacity` bytes
  /// (whole pages); throws std::bad_alloc when the system has none.
  void grow(std::size_t capacity);

  PayloadEncoder encoder_;
  std::uint8_t* bytes_ = nullptr;  ///< mapping of capacity_ bytes, or null
  std::size_t used_ = 0;
  std::size_t capacity_ = 0;
};

/// TraceSource over a Tracer's capture. The payload is borrowed, not
/// copied (the Tracer must outlive the source), so any number of sources
/// on any threads can replay one immutable capture at once.
class MemoryTraceSource final : public TraceSource {
 public:
  explicit MemoryTraceSource(const Tracer& tracer) noexcept;

  bool next(Record& out) override { return next_batch(&out, 1) == 1; }
  std::size_t next_batch(Record* out, std::size_t max) override;
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return records_;
  }
  void reset() override;

 private:
  const std::uint8_t* begin_;
  const std::uint8_t* end_;
  const std::uint8_t* pos_;
  std::uint64_t records_;
  std::uint64_t emitted_ = 0;
  PayloadDecoder decoder_;
};

/// A synthetic basic block: `instructions` sequential 4-byte instructions
/// ending in a branch slot. Executing it emits its fetch stream.
class Block {
 public:
  Block() = default;

  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::size_t instructions() const noexcept {
    return instructions_;
  }

 private:
  friend class Tracer;
  Block(std::uint64_t base, std::size_t instructions)
      : base_(base), instructions_(instructions) {}
  std::uint64_t base_ = 0;
  std::size_t instructions_ = 0;
};

/// Records every event of one kernel run, encoding each record into the
/// in-memory payload as it is captured.
class Tracer {
 public:
  static constexpr std::uint64_t kCodeBase = 0x0040'0000;
  static constexpr std::uint64_t kDataBase = 0x1000'0000;

  Tracer() = default;

  /// Lays out a new basic block in the synthetic code segment.
  [[nodiscard]] Block block(std::size_t instructions);

  /// Emits the fetch stream of `b` followed by its terminating branch.
  /// `taken` marks loop back-edges (they cost a redirect in the core).
  void exec(const Block& b, bool taken = false);

  /// Raw data-access hooks (used by Array<T>).
  void load(std::uint64_t addr) { records_.append(Kind::kLoad, false, addr); }
  void store(std::uint64_t addr) {
    records_.append(Kind::kStore, false, addr);
  }

  /// Reserves `bytes` of data address space aligned to `align`.
  [[nodiscard]] std::uint64_t alloc_data(std::size_t bytes,
                                         std::size_t align = 4);

  [[nodiscard]] const EncodedRecords& records() const noexcept {
    return records_;
  }
  [[nodiscard]] TraceStats stats() const noexcept {
    return records_.encoder().stats();
  }

  /// Makes room for `records` more records of a typical kernel without
  /// reallocating: a data access within an array encodes in 2-3 bytes.
  void reserve(std::size_t records) { records_.reserve(3 * records); }

 private:
  EncodedRecords records_;
  std::uint64_t next_code_ = kCodeBase;
  std::uint64_t next_data_ = kDataBase;
};

/// Typed array over traced memory: element reads/writes are recorded in
/// the owning Tracer and backed by a real std::vector so kernels stay
/// functionally exact.
template <typename T>
class Array {
 public:
  Array(Tracer& tracer, std::size_t count)
      : tracer_(&tracer),
        base_(tracer.alloc_data(count * sizeof(T), alignof(T) >= 4 ? alignof(T) : 4)),
        storage_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t addr_of(std::size_t i) const noexcept {
    return base_ + i * sizeof(T);
  }

  /// Recorded read.
  [[nodiscard]] T get(std::size_t i) const {
    expects(i < storage_.size(), "Array read out of range");
    tracer_->load(addr_of(i));
    return storage_[i];
  }

  /// Recorded write.
  void set(std::size_t i, T value) {
    expects(i < storage_.size(), "Array write out of range");
    tracer_->store(addr_of(i));
    storage_[i] = value;
  }

  /// Un-traced access for test assertions / result checks.
  [[nodiscard]] const std::vector<T>& raw() const noexcept { return storage_; }
  void set_raw(std::size_t i, T value) { storage_[i] = value; }
  [[nodiscard]] T get_raw(std::size_t i) const { return storage_[i]; }

 private:
  Tracer* tracer_;
  std::uint64_t base_;
  std::vector<T> storage_;
};

}  // namespace hvc::trace
