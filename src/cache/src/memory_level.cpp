#include "hvc/cache/memory_level.hpp"

#include <utility>

#include "hvc/cache/memory.hpp"

namespace hvc::cache {

std::string to_string(AccessType type) {
  switch (type) {
    case AccessType::kLoad: return "load";
    case AccessType::kStore: return "store";
    case AccessType::kIfetch: return "ifetch";
  }
  return "?";
}

AccessResult MemoryLevel::access(std::uint64_t addr, AccessType type,
                                 std::uint32_t store_value) {
  // Default: synthesize the access from the word virtuals. Levels without
  // a tag datapath service every request, so it reports a hit; loads ride
  // the word-fallback path, which per the latency contract has no latency
  // return of its own (levels with a uniform access latency override).
  AccessResult result;
  result.hit = true;
  if (type == AccessType::kStore) {
    result.latency_cycles = store_word(addr, store_value);
  } else {
    result.data = load_word(addr);
  }
  return result;
}

MainMemoryLevel::MainMemoryLevel(MainMemory& memory,
                                 std::size_t latency_cycles, std::string name)
    : memory_(memory),
      latency_cycles_(latency_cycles),
      name_(std::move(name)) {}

AccessResult MainMemoryLevel::access(std::uint64_t addr, AccessType type,
                                     std::uint32_t store_value) {
  AccessResult result;
  result.hit = true;  // memory always hits
  result.latency_cycles = latency_cycles_;
  if (type == AccessType::kStore) {
    memory_.write_word(addr, store_value);
    ++word_writes_;
  } else {
    result.data = memory_.read_word(addr);
    ++word_reads_;
  }
  return result;
}

std::size_t MainMemoryLevel::fetch_block(std::uint64_t addr,
                                         std::uint32_t* out,
                                         std::size_t count) {
  memory_.read_block_into(addr, out, count);
  ++fetches_;
  return latency_cycles_;
}

std::size_t MainMemoryLevel::writeback_block(std::uint64_t addr,
                                             const std::uint32_t* words,
                                             std::size_t count) {
  memory_.write_block(addr, words, count);
  ++writebacks_;
  return latency_cycles_;
}

std::uint32_t MainMemoryLevel::load_word(std::uint64_t addr) {
  ++word_reads_;
  return memory_.read_word(addr);
}

std::size_t MainMemoryLevel::store_word(std::uint64_t addr,
                                        std::uint32_t value) {
  memory_.write_word(addr, value);
  ++word_writes_;
  return latency_cycles_;
}

LevelStats MainMemoryLevel::level_stats() const {
  LevelStats out;
  out.name = name_;
  out.accesses = fetches_ + writebacks_ + word_reads_ + word_writes_;
  out.hits = out.accesses;  // memory always hits
  out.fills = fetches_;
  out.writebacks = writebacks_;
  return out;
}

void MainMemoryLevel::clear_level_counters() {
  fetches_ = 0;
  writebacks_ = 0;
  word_reads_ = 0;
  word_writes_ = 0;
}

}  // namespace hvc::cache
