// Streaming on-disk trace capture/replay (.hvct files).
//
// The full format specification lives next to TraceSource in trace.hpp;
// in short: a 12-byte header, a payload of tag-byte + zigzag-varint
// address deltas (separate delta chains for the code and data streams),
// and a 72-byte footer carrying the record count and the TraceStats of
// the stream. TraceWriter and TraceFileSource are both windowed: neither
// ever holds more than one fixed-size I/O buffer in memory, so traces of
// arbitrary length can be recorded once and replayed many times without
// re-running the codec kernels or materializing a record vector.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "hvc/trace/trace.hpp"

namespace hvc::trace {

/// Current .hvct format version (see the spec block in trace.hpp).
inline constexpr std::uint16_t kTraceFormatVersion = 1;
/// Fixed header/footer sizes of version 1.
inline constexpr std::size_t kTraceHeaderBytes = 12;
inline constexpr std::size_t kTraceFooterBytes = 72;
/// Default I/O window for writer and reader (the only per-stream memory
/// either holds besides O(1) decode state).
inline constexpr std::size_t kTraceIoBufferBytes = 64 * 1024;

/// True when a workload-axis entry names a recorded trace instead of a
/// registry kernel: "trace:<path>".
[[nodiscard]] bool is_trace_ref(std::string_view name) noexcept;

/// The path of a "trace:<path>" reference; throws ConfigError when the
/// entry is not a trace reference or the path is empty.
[[nodiscard]] std::string trace_ref_path(std::string_view name);

/// Header + footer summary of a .hvct file (no payload decode).
struct TraceInfo {
  std::uint16_t version = 0;
  std::uint16_t flags = 0;
  std::uint64_t records = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t file_bytes = 0;
  TraceStats stats;
};

/// Buffered .hvct writer. append() encodes into a fixed-size window that
/// is flushed to disk when full; finish() writes the footer and closes.
/// A file is valid only after finish() — a writer destroyed mid-stream
/// leaves a footerless file every reader rejects.
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path,
                       std::size_t buffer_bytes = kTraceIoBufferBytes);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Encodes one record (kind tag + per-stream address delta): a
  /// one-record append_batch().
  void append(const Record& record);

  /// Encodes a run of records through the shared PayloadEncoder; the
  /// file bytes do not depend on how a stream is split into calls.
  void append_batch(const Record* records, std::size_t count);

  /// Writes an in-memory capture's payload bytes as they are and takes
  /// over its encoder state. Only on a writer nothing was appended to,
  /// since the capture's delta chains start at 0.
  void append_encoded(const EncodedRecords& records);

  /// Flushes, writes the footer and closes the file. Idempotent.
  void finish();

  /// Running stats of everything appended so far (footprints included).
  [[nodiscard]] TraceStats stats() const noexcept { return encoder_.stats(); }
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return encoder_.records();
  }

 private:
  void flush_buffer();

  std::string path_;
  std::FILE* file_ = nullptr;
  /// Fixed-size emission window, sized (and thereby pre-faulted) at
  /// construction so the first captured blocks never stall on page
  /// faults mid-encode; buf_len_ is the fill cursor.
  std::vector<std::uint8_t> buffer_;
  std::size_t buf_len_ = 0;
  PayloadEncoder encoder_;
  bool finished_ = false;
};

/// Streaming reader over a .hvct file: validates header/footer up front,
/// then decodes blocks of records out of a fixed-size refill window. A
/// record the window's end cuts in two is carried over to the next fill,
/// so any window size decodes the same records. reset() seeks back to
/// the payload start, so one source replays many times (sweeps) without
/// reopening the file.
class TraceFileSource final : public TraceSource {
 public:
  explicit TraceFileSource(const std::string& path,
                           std::size_t buffer_bytes = kTraceIoBufferBytes);
  ~TraceFileSource() override;
  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  bool next(Record& out) override { return next_batch(&out, 1) == 1; }
  std::size_t next_batch(Record* out, std::size_t max) override;
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return info_.records;
  }
  void reset() override;

  [[nodiscard]] const TraceInfo& info() const noexcept { return info_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  TraceInfo info_;
  std::size_t window_ = 0;  ///< bytes read per fill
  /// window_ plus room for the bytes of one cut record.
  std::vector<std::uint8_t> buffer_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  std::uint64_t payload_left_ = 0;  ///< payload bytes not yet read
  std::uint64_t emitted_ = 0;
  PayloadDecoder decoder_;
};

/// Reads and validates a file's header + footer only (hvc_trace info).
[[nodiscard]] TraceInfo read_trace_info(const std::string& path);

/// Hostile-input classification of a .hvct file (hvc_trace fsck).
enum class TraceFsckStatus {
  kClean,        ///< header, payload and footer all validate
  kRecoverable,  ///< valid header + a decodable record prefix, but the
                 ///< footer is missing/invalid or the tail is torn —
                 ///< repair_trace() salvages the prefix
  kCorrupt,      ///< the header itself is unusable (wrong magic/version/
                 ///< flags): nothing to salvage
};

[[nodiscard]] const char* to_string(TraceFsckStatus status) noexcept;

struct TraceFsckReport {
  TraceFsckStatus status = TraceFsckStatus::kCorrupt;
  std::uint64_t records = 0;        ///< fully-decodable records
  std::uint64_t payload_bytes = 0;  ///< bytes those records occupy
  std::uint64_t file_bytes = 0;
  TraceStats stats;    ///< recomputed from the decodable prefix
  std::string detail;  ///< human-readable finding
};

/// Read-only integrity check: classifies `path` without modifying it.
/// A clean file reports the footer's counts; a damaged one reports how
/// much of the payload is decodable (what --repair would keep).
[[nodiscard]] TraceFsckReport fsck_trace(const std::string& path);

/// Salvages a recoverable file in place: truncates the payload to the
/// last fully-decodable record and writes a fresh footer recomputed from
/// the kept records, leaving a file every reader accepts. Clean files
/// are untouched. Throws ConfigError when the header is corrupt.
TraceFsckReport repair_trace(const std::string& path);

/// Records an entire source (or an in-memory capture) to `path`; returns
/// the written stats. The source is reset() first.
TraceStats write_trace(const std::string& path, TraceSource& source);
TraceStats write_trace(const std::string& path, const Tracer& tracer);

}  // namespace hvc::trace
