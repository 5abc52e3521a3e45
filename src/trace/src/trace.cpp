#include "hvc/trace/trace.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

namespace hvc::trace {

TraceStats TraceTally::stats() const noexcept {
  TraceStats s;
  s.instructions = counts_[static_cast<std::size_t>(Kind::kIfetch)];
  s.loads = counts_[static_cast<std::size_t>(Kind::kLoad)];
  s.stores = counts_[static_cast<std::size_t>(Kind::kStore)];
  s.branches = counts_[static_cast<std::size_t>(Kind::kBranch)];
  s.taken_branches = taken_branches_;
  if (data_hi_ > data_lo_) {
    s.data_footprint_bytes = data_hi_ - data_lo_;
  }
  if (code_hi_ > code_lo_) {
    s.code_footprint_bytes = code_hi_ - code_lo_;
  }
  return s;
}

std::size_t PayloadDecoder::decode(const std::uint8_t*& pos,
                                   const std::uint8_t* end, Record* out,
                                   std::size_t max) noexcept {
  // Valid tags are the four kinds without the taken bit, and a taken
  // branch (7): bits 0-3 and 7 of kValidTags.
  constexpr unsigned kValidTags = 0x8F;
  // The chains live in registers for the block: `out` is written through
  // a Record*, which could otherwise alias them.
  std::uint64_t code = last_[0];
  std::uint64_t data = last_[1];
  const std::uint8_t* p = pos;
  std::size_t n = 0;
  for (; n < max && p != end; ++n) {
    const unsigned tag = p[0];
    if (tag > 7 || ((kValidTags >> tag) & 1u) == 0) [[unlikely]] {
      fault_ = tag > 7 ? Fault::kReservedTagBits : Fault::kTakenNonBranch;
      break;
    }
    const std::uint8_t* v = p + 1;
    std::uint64_t raw = 0;
    bool whole = false;
    if (end - p >= 3) [[likely]] {
      // A delta of one or two varint bytes (almost every record) decodes
      // without a branch on the data: which of the two it is varies from
      // record to record and would defeat the branch predictor.
      const std::uint64_t b0 = v[0];
      const std::uint64_t b1 = v[1];
      const std::uint64_t second = b0 >> 7;
      if ((second & (b1 >> 7)) == 0) [[likely]] {
        raw = (b0 & 0x7F) | (((b1 & 0x7F) << 7) & (0 - second));
        v += 1 + second;
        whole = true;
      }
    }
    if (!whole) [[unlikely]] {
      // Longer varints, and records the end of the span may cut. No
      // record is longer than kMaxRecordBytes.
      const std::uint8_t* const limit =
          static_cast<std::size_t>(end - p) >= kMaxRecordBytes
              ? p + kMaxRecordBytes
              : end;
      for (unsigned shift = 0; v != limit; shift += 7) {
        const std::uint8_t byte = *v++;
        raw |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if (byte < 0x80) {
          whole = true;
          break;
        }
      }
      if (!whole) {
        if (limit == p + kMaxRecordBytes) {
          fault_ = Fault::kOverlongVarint;
        }
        break;  // otherwise cut by `end`: the caller brings more bytes
      }
    }
    const std::uint64_t delta = (raw >> 1) ^ (0 - (raw & 1));  // zigzag
    const unsigned kind = tag & 0x03u;
    // All ones for the data chain (loads and stores), else zero; the
    // masks keep the chain choice off the branch predictor too.
    const std::uint64_t on_data =
        0 - static_cast<std::uint64_t>((kind ^ (kind >> 1)) & 1u);
    code += delta & ~on_data;
    data += delta & on_data;
    out[n].kind = static_cast<Kind>(kind);
    out[n].taken = tag == 7;
    out[n].addr = (data & on_data) | (code & ~on_data);
    p = v;
  }
  pos = p;
  last_[0] = code;
  last_[1] = data;
  return n;
}

const char* PayloadDecoder::describe(Fault fault) noexcept {
  switch (fault) {
    case Fault::kNone:
      return "no fault";
    case Fault::kReservedTagBits:
      return "corrupt record tag (reserved bits set)";
    case Fault::kTakenNonBranch:
      return "taken flag on a non-branch record";
    case Fault::kOverlongVarint:
      return "varint longer than 64 bits";
  }
  return "?";
}

EncodedRecords::~EncodedRecords() {
  if (bytes_ != nullptr) {
    ::munmap(bytes_, capacity_);
  }
}

EncodedRecords::EncodedRecords(EncodedRecords&& other) noexcept
    : encoder_(std::exchange(other.encoder_, PayloadEncoder())),
      bytes_(std::exchange(other.bytes_, nullptr)),
      used_(std::exchange(other.used_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

EncodedRecords& EncodedRecords::operator=(EncodedRecords&& other) noexcept {
  if (this != &other) {
    EncodedRecords released(std::move(*this));
    encoder_ = std::exchange(other.encoder_, PayloadEncoder());
    bytes_ = std::exchange(other.bytes_, nullptr);
    used_ = std::exchange(other.used_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
  }
  return *this;
}

void EncodedRecords::grow(std::size_t capacity) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  capacity = std::max(capacity, page);
  capacity = (capacity + page - 1) / page * page;
  void* bytes = bytes_ == nullptr
                    ? ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                    : ::mremap(bytes_, capacity_, capacity, MREMAP_MAYMOVE);
  if (bytes == MAP_FAILED) {
    throw std::bad_alloc();
  }
  bytes_ = static_cast<std::uint8_t*>(bytes);
  capacity_ = capacity;
}

MemoryTraceSource::MemoryTraceSource(const Tracer& tracer) noexcept
    : begin_(tracer.records().data()),
      end_(begin_ + tracer.records().bytes()),
      pos_(begin_),
      records_(tracer.records().size()) {}

std::size_t MemoryTraceSource::next_batch(Record* out, std::size_t max) {
  const auto want =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, records_ - emitted_));
  const std::size_t got = decoder_.decode(pos_, end_, out, want);
  emitted_ += got;
  ensure(got == want && (emitted_ < records_ || pos_ == end_),
         "a Tracer payload decodes to exactly its record count");
  return got;
}

void MemoryTraceSource::reset() {
  pos_ = begin_;
  emitted_ = 0;
  decoder_.reset();
}

Block Tracer::block(std::size_t instructions) {
  expects(instructions >= 1, "a block needs at least one instruction");
  const Block b(next_code_, instructions);
  next_code_ += instructions * 4;
  return b;
}

void Tracer::exec(const Block& b, bool taken) {
  expects(b.instructions() >= 1, "cannot exec an empty block");
  const std::size_t n = b.instructions();
  std::uint64_t addr = b.base();
  for (std::size_t i = 0; i < n; ++i) {
    records_.append(Kind::kIfetch, false, addr);
    addr += 4;
  }
  records_.append(Kind::kBranch, taken, addr - 4);
}

std::uint64_t Tracer::alloc_data(std::size_t bytes, std::size_t align) {
  expects(align > 0 && (align & (align - 1)) == 0,
          "alignment must be a power of two");
  next_data_ = (next_data_ + align - 1) & ~static_cast<std::uint64_t>(align - 1);
  const std::uint64_t base = next_data_;
  next_data_ += bytes;
  return base;
}

}  // namespace hvc::trace
