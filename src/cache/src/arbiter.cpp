#include "hvc/cache/arbiter.hpp"

#include "hvc/common/error.hpp"

namespace hvc::cache {

ArbitratedLevel::ArbitratedLevel(MemoryLevel& inner, std::size_t requesters,
                                 double vcc)
    : inner_(inner), vcc_(vcc),
      round_busy_(requesters, 0), round_stamp_(requesters, 0),
      grants_(requesters, 0), priority_grants_(requesters, 0) {
  expects(requesters >= 1, "arbiter needs at least one requester");
  uncontended_grant_j_ = kCapPerGrantF * vcc_ * vcc_;
}

std::size_t ArbitratedLevel::grant(std::size_t service_cycles,
                                   bool latency_applies) {
  // Epoch-lazy round reset: refresh this requester's occupancy BEFORE
  // reading it — a stale entry still holds last round's value and the
  // subtraction below must see zero for it.
  if (round_stamp_[current_] != round_seq_) {
    round_stamp_[current_] = round_seq_;
    round_busy_[current_] = 0;
  }
  // Single port: the request waits out the full service time of every
  // other requester granted before it in the round.
  const std::size_t delay =
      latency_applies ? static_cast<std::size_t>(round_busy_total_ -
                                                 round_busy_[current_])
                      : 0;

  ++grants_[current_];
  if (!round_opened_) {
    // First grant of the round: the requester that sees the idle port.
    // The interleaver's rotating step order makes this slot circulate.
    ++priority_grants_[current_];
    round_opened_ = true;
  }
  round_busy_[current_] += service_cycles;
  round_busy_total_ += service_cycles;

  if (delay > 0) {
    ++contended_requests_;
    contention_cycles_ += delay;
    arbitration_energy_j_ +=
        (kCapPerGrantF + kCapPerQueuedCycleF * static_cast<double>(delay)) *
        vcc_ * vcc_;
  } else {
    // delay == 0 collapses the expression above to exactly the
    // precomputed grant term (the queued-cycle product is +0.0 and
    // x + 0.0 == x for the positive cap term), so this add is
    // bit-identical to the full evaluation.
    arbitration_energy_j_ += uncontended_grant_j_;
  }
  return delay + service_cycles;
}

AccessResult ArbitratedLevel::access(std::uint64_t addr, AccessType type,
                                     std::uint32_t store_value) {
  AccessResult result = inner_.access(addr, type, store_value);
  result.latency_cycles = grant(result.latency_cycles);
  return result;
}

std::size_t ArbitratedLevel::fetch_block(std::uint64_t addr,
                                         std::uint32_t* out,
                                         std::size_t count) {
  return grant(inner_.fetch_block(addr, out, count));
}

std::size_t ArbitratedLevel::writeback_block(std::uint64_t addr,
                                             const std::uint32_t* words,
                                             std::size_t count) {
  return grant(inner_.writeback_block(addr, words, count));
}

std::uint32_t ArbitratedLevel::load_word(std::uint64_t addr) {
  const std::uint32_t value = inner_.load_word(addr);
  // The fallback word path carries no latency return; count the grant so
  // traffic identities hold, but record no queueing delay — it could not
  // have lengthened any stall.
  (void)grant(0, /*latency_applies=*/false);
  return value;
}

std::size_t ArbitratedLevel::store_word(std::uint64_t addr,
                                        std::uint32_t value) {
  return grant(inner_.store_word(addr, value));
}

LevelStats ArbitratedLevel::level_stats() const {
  LevelStats stats = inner_.level_stats();
  stats.contended_requests = contended_requests_;
  stats.contention_cycles = contention_cycles_;
  return stats;
}

void ArbitratedLevel::clear_level_counters() {
  inner_.clear_level_counters();
  for (std::size_t r = 0; r < grants_.size(); ++r) {
    grants_[r] = 0;
    priority_grants_[r] = 0;
  }
  contended_requests_ = 0;
  contention_cycles_ = 0;
  arbitration_energy_j_ = 0.0;
  new_round();
}

}  // namespace hvc::cache
