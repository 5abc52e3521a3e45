#include "hvc/trace/trace_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "hvc/common/error.hpp"

namespace hvc::trace {

namespace {

constexpr char kHeaderMagic[4] = {'H', 'V', 'C', 'T'};
constexpr char kFooterMagic[4] = {'H', 'V', 'C', 'F'};
constexpr std::string_view kTraceRefPrefix = "trace:";

void store_u16(std::uint8_t* out, std::uint16_t value) noexcept {
  out[0] = static_cast<std::uint8_t>(value);
  out[1] = static_cast<std::uint8_t>(value >> 8);
}

void store_u32(std::uint8_t* out, std::uint32_t value) noexcept {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void store_u64(std::uint8_t* out, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

[[nodiscard]] std::uint16_t load_u16(const std::uint8_t* in) noexcept {
  return static_cast<std::uint16_t>(in[0] |
                                    (static_cast<std::uint16_t>(in[1]) << 8));
}

[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* in) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

[[nodiscard]] ConfigError bad_trace(const std::string& path,
                                    const std::string& what) {
  return ConfigError("trace file \"" + path + "\": " + what);
}

[[nodiscard]] ConfigError bad_trace_errno(const std::string& path,
                                          const std::string& what) {
  return bad_trace(path, what + ": " + std::strerror(errno));
}

/// Encodes the fixed footer (shared by finish() and repair_trace()).
void encode_footer(std::uint8_t (&out)[kTraceFooterBytes],
                   std::uint64_t records, const TraceStats& s) noexcept {
  std::memset(out, 0, sizeof out);
  std::memcpy(out, kFooterMagic, 4);
  store_u32(out + 4, 0);  // reserved
  store_u64(out + 8, records);
  store_u64(out + 16, s.instructions);
  store_u64(out + 24, s.loads);
  store_u64(out + 32, s.stores);
  store_u64(out + 40, s.branches);
  store_u64(out + 48, s.taken_branches);
  store_u64(out + 56, s.data_footprint_bytes);
  store_u64(out + 64, s.code_footprint_bytes);
}

/// Decodes the fixed-size footer (record count + stats).
void parse_footer(const std::string& path,
                  const std::uint8_t (&raw)[kTraceFooterBytes],
                  TraceInfo& info) {
  if (std::memcmp(raw, kFooterMagic, 4) != 0) {
    throw bad_trace(path, "missing footer (truncated or unfinished write?)");
  }
  if (load_u16(raw + 4) != 0 || load_u16(raw + 6) != 0) {
    throw bad_trace(path, "non-zero reserved footer bytes");
  }
  info.records = load_u64(raw + 8);
  info.stats.instructions = load_u64(raw + 16);
  info.stats.loads = load_u64(raw + 24);
  info.stats.stores = load_u64(raw + 32);
  info.stats.branches = load_u64(raw + 40);
  info.stats.taken_branches = load_u64(raw + 48);
  info.stats.data_footprint_bytes = load_u64(raw + 56);
  info.stats.code_footprint_bytes = load_u64(raw + 64);
  const std::uint64_t kinds = info.stats.instructions + info.stats.loads +
                              info.stats.stores + info.stats.branches;
  if (kinds != info.records) {
    throw bad_trace(path, "footer stats do not sum to the record count");
  }
  if (info.stats.taken_branches > info.stats.branches) {
    throw bad_trace(path, "footer counts more taken branches than branches");
  }
}

/// Opens `path` and validates header + footer; leaves the stream
/// positioned at the payload start. Throws (and closes) on any problem.
[[nodiscard]] std::FILE* open_and_validate(const std::string& path,
                                           TraceInfo& info) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw ConfigError("cannot open trace file \"" + path + "\"");
  }
  try {
    if (std::fseek(file, 0, SEEK_END) != 0) {
      throw bad_trace(path, "seek failed");
    }
    // `long` is 64-bit on every supported target (Linux/LP64); traces
    // beyond 2 GiB would need ftello/fseeko on ILP32 platforms.
    const long size = std::ftell(file);
    if (size < 0 ||
        static_cast<std::size_t>(size) <
            kTraceHeaderBytes + kTraceFooterBytes) {
      throw bad_trace(path, "too short to be a .hvct trace");
    }
    info.file_bytes = static_cast<std::uint64_t>(size);
    info.payload_bytes =
        info.file_bytes - kTraceHeaderBytes - kTraceFooterBytes;

    std::uint8_t header[kTraceHeaderBytes];
    std::rewind(file);
    if (std::fread(header, 1, sizeof header, file) != sizeof header) {
      throw bad_trace(path, "short header read");
    }
    if (std::memcmp(header, kHeaderMagic, 4) != 0) {
      throw bad_trace(path, "bad magic (not a .hvct trace)");
    }
    info.version = load_u16(header + 4);
    info.flags = load_u16(header + 6);
    if (info.version != kTraceFormatVersion) {
      throw bad_trace(path, "unsupported format version " +
                                std::to_string(info.version));
    }
    if (info.flags != 0) {
      throw bad_trace(path, "unsupported flags");
    }

    std::uint8_t footer[kTraceFooterBytes];
    if (std::fseek(file, -static_cast<long>(kTraceFooterBytes), SEEK_END) !=
            0 ||
        std::fread(footer, 1, sizeof footer, file) != sizeof footer) {
      throw bad_trace(path, "short footer read");
    }
    parse_footer(path, footer, info);
    // Every record is at least a tag byte plus one varint byte.
    if (info.payload_bytes < 2 * info.records) {
      throw bad_trace(path, "payload too small for its record count");
    }
    if (std::fseek(file, static_cast<long>(kTraceHeaderBytes), SEEK_SET) !=
        0) {
      throw bad_trace(path, "seek to payload failed");
    }
  } catch (...) {
    std::fclose(file);
    throw;
  }
  return file;
}

/// Moves the unread bytes [pos, len) of `buffer` (at most one record
/// cut by the previous fill) to its front, then appends up to `window`
/// of the `left` payload bytes still in `file`. Returns the bytes read:
/// 0 at the end of the payload or on a read error.
std::size_t refill_window(std::FILE* file, std::vector<std::uint8_t>& buffer,
                          std::size_t& pos, std::size_t& len,
                          std::uint64_t& left, std::size_t window) {
  const std::size_t carry = len - pos;
  std::memmove(buffer.data(), buffer.data() + pos, carry);
  pos = 0;
  len = carry;
  const auto want =
      static_cast<std::size_t>(std::min<std::uint64_t>(window, left));
  if (want == 0) {
    return 0;
  }
  const std::size_t got = std::fread(buffer.data() + carry, 1, want, file);
  len += got;
  left -= got;
  return got;
}

}  // namespace

bool is_trace_ref(std::string_view name) noexcept {
  return name.size() > kTraceRefPrefix.size() &&
         name.substr(0, kTraceRefPrefix.size()) == kTraceRefPrefix;
}

std::string trace_ref_path(std::string_view name) {
  if (name.substr(0, kTraceRefPrefix.size()) != kTraceRefPrefix ||
      name.size() == kTraceRefPrefix.size()) {
    throw ConfigError("\"" + std::string(name) +
                      "\" is not a trace reference (expected trace:<path>)");
  }
  return std::string(name.substr(kTraceRefPrefix.size()));
}

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, std::size_t buffer_bytes)
    : path_(path) {
  expects(buffer_bytes >= 16, "trace writer window must hold one record");
  // resize (not reserve): zero-initializing the window touches every page
  // up front, so the encode loop never takes a first-touch page fault
  // mid-capture — the window is warm from the first record on.
  buffer_.resize(buffer_bytes);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw ConfigError("cannot create trace file \"" + path + "\"");
  }
  std::uint8_t header[kTraceHeaderBytes] = {};
  std::memcpy(header, kHeaderMagic, 4);
  store_u16(header + 4, kTraceFormatVersion);
  store_u16(header + 6, 0);   // flags
  store_u32(header + 8, 0);   // reserved
  if (std::fwrite(header, 1, sizeof header, file_) != sizeof header) {
    std::fclose(file_);
    file_ = nullptr;
    throw ConfigError("cannot write trace header to \"" + path + "\"");
  }
}

TraceWriter::~TraceWriter() {
  // No implicit finish(): a file without a footer is deliberately invalid,
  // so a writer unwound by an exception cannot leave a plausible trace.
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void TraceWriter::flush_buffer() {
  if (buf_len_ == 0) {
    return;
  }
  if (std::fwrite(buffer_.data(), 1, buf_len_, file_) != buf_len_) {
    // fwrite reports short writes without setting errno reliably; ferror
    // state plus errno (ENOSPC and friends) is the best diagnosis we get.
    throw bad_trace_errno(path_, "short write");
  }
  buf_len_ = 0;
}

void TraceWriter::append(const Record& record) { append_batch(&record, 1); }

void TraceWriter::append_batch(const Record* records, std::size_t count) {
  expects(!finished_, "append after finish()");
  // The constructor guarantees the window holds at least one record.
  std::uint8_t* const base = buffer_.data();
  std::uint8_t* const last_start = base + buffer_.size() - kMaxRecordBytes;
  std::uint8_t* p = base + buf_len_;
  for (std::size_t i = 0; i < count; ++i) {
    if (p > last_start) {
      buf_len_ = static_cast<std::size_t>(p - base);
      flush_buffer();
      p = base;
    }
    p = encoder_.put(records[i].kind, records[i].taken, records[i].addr, p);
  }
  buf_len_ = static_cast<std::size_t>(p - base);
}

void TraceWriter::append_encoded(const EncodedRecords& records) {
  expects(!finished_ && encoder_.records() == 0,
          "an in-memory capture must start the trace");
  if (records.bytes() > 0 &&
      std::fwrite(records.data(), 1, records.bytes(), file_) !=
          records.bytes()) {
    throw bad_trace_errno(path_, "short write");
  }
  encoder_ = records.encoder();
}

void TraceWriter::finish() {
  if (finished_) {
    return;
  }
  // Durability contract: every byte — payload window, footer, stdio
  // buffer — must reach the kernel AND stable storage before finish()
  // reports success. A short write or close-time flush failure (ENOSPC
  // on a full disk is the classic) surfaces as ConfigError with errno
  // text instead of silently "succeeding" with a torn file. Whatever
  // fails, the FILE* is closed and the writer is finished: a failed
  // finish leaves an invalid (footerless or torn) file, never a leak.
  std::uint8_t footer[kTraceFooterBytes];
  encode_footer(footer, encoder_.records(), stats());
  try {
    flush_buffer();
    if (std::fwrite(footer, 1, sizeof footer, file_) != sizeof footer) {
      throw bad_trace_errno(path_, "cannot write footer");
    }
    // Drain stdio's buffer to the kernel...
    if (std::fflush(file_) != 0) {
      throw bad_trace_errno(path_, "flush failed");
    }
    // ...and the kernel's pages to stable storage, so a power cut after
    // a successful finish() cannot lose a reported-complete trace.
    if (::fsync(::fileno(file_)) != 0) {
      throw bad_trace_errno(path_, "fsync failed");
    }
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    finished_ = true;
    throw;
  }
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  finished_ = true;
  if (!closed) {
    throw bad_trace_errno(path_, "close failed");
  }
}

// ---------------------------------------------------------------------
// TraceFileSource
// ---------------------------------------------------------------------

TraceFileSource::TraceFileSource(const std::string& path,
                                 std::size_t buffer_bytes)
    : path_(path), window_(buffer_bytes) {
  expects(buffer_bytes >= 1, "trace reader window must be non-empty");
  buffer_.resize(buffer_bytes + kMaxRecordBytes);
  file_ = open_and_validate(path, info_);
  payload_left_ = info_.payload_bytes;
}

TraceFileSource::~TraceFileSource() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

std::size_t TraceFileSource::next_batch(Record* out, std::size_t max) {
  std::size_t produced = 0;
  while (produced < max) {
    if (emitted_ == info_.records) {
      if (buf_pos_ != buf_len_ || payload_left_ != 0) {
        throw bad_trace(path_, "payload bytes left over after the last record");
      }
      break;
    }
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max - produced, info_.records - emitted_));
    const std::uint8_t* pos = buffer_.data() + buf_pos_;
    const std::size_t got = decoder_.decode(
        pos, buffer_.data() + buf_len_, out + produced, want);
    buf_pos_ = static_cast<std::size_t>(pos - buffer_.data());
    produced += got;
    emitted_ += got;
    if (decoder_.fault() != PayloadDecoder::Fault::kNone) {
      throw bad_trace(path_, PayloadDecoder::describe(decoder_.fault()));
    }
    if (got < want &&
        refill_window(file_, buffer_, buf_pos_, buf_len_, payload_left_,
                      window_) == 0) {
      throw bad_trace(path_, payload_left_ == 0
                                 ? "payload ends before its record count"
                                 : "payload read failed");
    }
  }
  return produced;
}

void TraceFileSource::reset() {
  if (std::fseek(file_, static_cast<long>(kTraceHeaderBytes), SEEK_SET) !=
      0) {
    throw bad_trace(path_, "seek to payload failed");
  }
  buf_pos_ = 0;
  buf_len_ = 0;
  payload_left_ = info_.payload_bytes;
  emitted_ = 0;
  decoder_.reset();
}

// ---------------------------------------------------------------------
// fsck / repair
// ---------------------------------------------------------------------

namespace {

/// What a raw payload decode found: the longest prefix of fully-valid
/// records, its stats (tallied exactly the way TraceWriter tracks them),
/// and why the scan stopped early, if it did.
struct PayloadScan {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  ///< payload bytes those records occupy
  bool complete = false;    ///< scan consumed the whole window cleanly
  TraceStats stats;
  std::string detail;
};

/// Decodes the `window_bytes` payload bytes at `file`'s position. A read
/// error ends the decodable bytes, like the end of the window.
[[nodiscard]] PayloadScan scan_payload(std::FILE* file,
                                       std::uint64_t window_bytes) {
  PayloadScan scan;
  std::vector<std::uint8_t> buffer(kTraceIoBufferBytes + kMaxRecordBytes);
  std::size_t pos = 0;
  std::size_t len = 0;
  std::uint64_t left = window_bytes;
  PayloadDecoder decoder;
  TraceTally tally;
  Record block[kReplayBlockRecords];
  for (;;) {
    const std::uint8_t* p = buffer.data() + pos;
    const std::size_t got = decoder.decode(p, buffer.data() + len, block,
                                           kReplayBlockRecords);
    for (std::size_t i = 0; i < got; ++i) {
      tally.add(block[i].kind, block[i].taken, block[i].addr);
    }
    scan.records += got;
    scan.bytes += static_cast<std::uint64_t>(p - (buffer.data() + pos));
    pos = static_cast<std::size_t>(p - buffer.data());
    if (decoder.fault() != PayloadDecoder::Fault::kNone) {
      scan.detail = std::string(PayloadDecoder::describe(decoder.fault())) +
                    " at payload offset " + std::to_string(scan.bytes);
      break;
    }
    if (got == kReplayBlockRecords) {
      continue;
    }
    if (refill_window(file, buffer, pos, len, left, kTraceIoBufferBytes) ==
        0) {
      if (len == 0) {
        scan.complete = true;  // ended exactly on a record boundary
      } else {
        scan.detail = "record torn mid-varint at payload offset " +
                      std::to_string(scan.bytes);
      }
      break;
    }
  }
  scan.stats = tally.stats();
  return scan;
}

[[nodiscard]] bool stats_equal(const TraceStats& a,
                               const TraceStats& b) noexcept {
  return a.instructions == b.instructions && a.loads == b.loads &&
         a.stores == b.stores && a.branches == b.branches &&
         a.taken_branches == b.taken_branches &&
         a.data_footprint_bytes == b.data_footprint_bytes &&
         a.code_footprint_bytes == b.code_footprint_bytes;
}

}  // namespace

const char* to_string(TraceFsckStatus status) noexcept {
  switch (status) {
    case TraceFsckStatus::kClean:
      return "clean";
    case TraceFsckStatus::kRecoverable:
      return "recoverable";
    case TraceFsckStatus::kCorrupt:
      return "corrupt";
  }
  return "?";
}

TraceFsckReport fsck_trace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    throw ConfigError("cannot open trace file \"" + path + "\"");
  }
  TraceFsckReport report;
  try {
    if (std::fseek(file, 0, SEEK_END) != 0) {
      throw bad_trace(path, "seek failed");
    }
    const long size = std::ftell(file);
    if (size < 0) {
      throw bad_trace(path, "cannot size file");
    }
    report.file_bytes = static_cast<std::uint64_t>(size);

    // Header: without a valid one there is nothing to salvage.
    std::uint8_t header[kTraceHeaderBytes];
    std::rewind(file);
    if (report.file_bytes < kTraceHeaderBytes ||
        std::fread(header, 1, sizeof header, file) != sizeof header) {
      report.status = TraceFsckStatus::kCorrupt;
      report.detail = "too short to hold a .hvct header";
      std::fclose(file);
      return report;
    }
    if (std::memcmp(header, kHeaderMagic, 4) != 0) {
      report.status = TraceFsckStatus::kCorrupt;
      report.detail = "bad magic (not a .hvct trace)";
      std::fclose(file);
      return report;
    }
    if (load_u16(header + 4) != kTraceFormatVersion) {
      report.status = TraceFsckStatus::kCorrupt;
      report.detail = "unsupported format version " +
                      std::to_string(load_u16(header + 4));
      std::fclose(file);
      return report;
    }
    if (load_u16(header + 6) != 0) {
      report.status = TraceFsckStatus::kCorrupt;
      report.detail = "unsupported flags";
      std::fclose(file);
      return report;
    }

    // Footer, if the tail looks like one; otherwise the whole remainder
    // is treated as (possibly torn) payload.
    bool footer_present = false;
    bool footer_valid = false;
    TraceInfo footer_info;
    std::string footer_problem = "missing footer";
    std::uint64_t window = report.file_bytes - kTraceHeaderBytes;
    if (report.file_bytes >= kTraceHeaderBytes + kTraceFooterBytes) {
      std::uint8_t footer[kTraceFooterBytes];
      if (std::fseek(file, -static_cast<long>(kTraceFooterBytes),
                     SEEK_END) != 0 ||
          std::fread(footer, 1, sizeof footer, file) != sizeof footer) {
        throw bad_trace(path, "short footer read");
      }
      footer_present = std::memcmp(footer, kFooterMagic, 4) == 0;
      if (footer_present) {
        window -= kTraceFooterBytes;
        try {
          parse_footer(path, footer, footer_info);
          footer_valid = true;
        } catch (const ConfigError& error) {
          footer_problem = error.what();
        }
      }
    }

    // Decode the payload window from the start; the longest valid record
    // prefix is what a repair would keep.
    if (std::fseek(file, static_cast<long>(kTraceHeaderBytes), SEEK_SET) !=
        0) {
      throw bad_trace(path, "seek to payload failed");
    }
    const PayloadScan scan = scan_payload(file, window);
    std::fclose(file);
    file = nullptr;

    report.records = scan.records;
    report.payload_bytes = scan.bytes;
    report.stats = scan.stats;
    if (footer_valid && scan.complete &&
        footer_info.records == scan.records &&
        stats_equal(footer_info.stats, scan.stats)) {
      report.status = TraceFsckStatus::kClean;
      report.detail = "header, payload and footer validate";
      return report;
    }
    report.status = TraceFsckStatus::kRecoverable;
    if (!scan.complete) {
      report.detail = scan.detail;
    } else if (!footer_valid) {
      report.detail = footer_problem;
    } else {
      report.detail =
          "footer disagrees with the payload (footer claims " +
          std::to_string(footer_info.records) + " records, payload holds " +
          std::to_string(scan.records) + ")";
    }
    return report;
  } catch (...) {
    if (file != nullptr) {
      std::fclose(file);
    }
    throw;
  }
}

TraceFsckReport repair_trace(const std::string& path) {
  TraceFsckReport report = fsck_trace(path);
  if (report.status == TraceFsckStatus::kClean) {
    return report;
  }
  if (report.status == TraceFsckStatus::kCorrupt) {
    throw bad_trace(path, "unrepairable (" + report.detail + ")");
  }

  // Keep the decodable record prefix: write a footer recomputed from it
  // directly after the last good record, cut everything past the footer,
  // and make the result durable before reporting success.
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    throw bad_trace_errno(path, "cannot open for repair");
  }
  std::uint8_t footer[kTraceFooterBytes];
  encode_footer(footer, report.records, report.stats);
  const auto footer_at =
      static_cast<off_t>(kTraceHeaderBytes + report.payload_bytes);
  const auto new_size = footer_at + static_cast<off_t>(kTraceFooterBytes);
  if (::pwrite(fd, footer, sizeof footer, footer_at) !=
          static_cast<ssize_t>(sizeof footer) ||
      ::ftruncate(fd, new_size) != 0 || ::fsync(fd) != 0) {
    const ConfigError error = bad_trace_errno(path, "repair write failed");
    ::close(fd);
    throw error;
  }
  ::close(fd);

  const std::string salvaged = report.detail;
  report.status = TraceFsckStatus::kClean;
  report.file_bytes = static_cast<std::uint64_t>(new_size);
  report.detail = "repaired: kept " + std::to_string(report.records) +
                  " records, dropped damaged tail (" + salvaged + ")";
  return report;
}

// ---------------------------------------------------------------------
// Convenience entry points
// ---------------------------------------------------------------------

TraceInfo read_trace_info(const std::string& path) {
  TraceInfo info;
  std::FILE* file = open_and_validate(path, info);
  std::fclose(file);
  return info;
}

TraceStats write_trace(const std::string& path, TraceSource& source) {
  TraceWriter writer(path);
  source.reset();
  Record block[kReplayBlockRecords];
  std::size_t got = 0;
  while ((got = source.next_batch(block, kReplayBlockRecords)) > 0) {
    writer.append_batch(block, got);
  }
  writer.finish();
  return writer.stats();
}

TraceStats write_trace(const std::string& path, const Tracer& tracer) {
  TraceWriter writer(path);
  writer.append_encoded(tracer.records());
  writer.finish();
  return writer.stats();
}

}  // namespace hvc::trace
