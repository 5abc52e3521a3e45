// Arbitration for shared memory-hierarchy levels.
//
// When several cores' private L1s miss into one shared level (the L2, or
// the memory terminal of an L2-less chip), their requests contend for its
// single port. ArbitratedLevel decorates any MemoryLevel with that port:
// the multi-core interleaver (sim::System::run_mix) declares the
// requesting core before each step and closes a round after stepping
// every core once; within a round, a request waits out the service time
// other requesters have already claimed. The queueing delay is composed
// into the level's latency returns — exactly like a deeper miss — so L2
// pressure lengthens stalls and shows up in cycles and EPI.
//
// Determinism: the delay is a pure function of the request sequence (no
// clocks, no randomness), so multi-core runs stay reproducible and the
// explorer's any-thread-count byte-identity guarantee extends to them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hvc/cache/memory_level.hpp"
#include "hvc/common/error.hpp"

namespace hvc::cache {

/// Decorator serializing one shared MemoryLevel between N requesters.
///
/// Protocol (driven by the round-robin interleaver):
///   begin_request(r) — requester r is about to issue zero or more
///                      requests (called once per interleaver step);
///   new_round()      — every requester has been stepped once; per-round
///                      occupancy resets.
/// Requests forwarded outside any begin_request() window (single-core
/// convenience paths) are attributed to requester 0.
class ArbitratedLevel final : public MemoryLevel {
 public:
  ArbitratedLevel(MemoryLevel& inner, std::size_t requesters, double vcc);

  /// Switched capacitance of the arbitration hardware itself (grant logic
  /// per request, request-buffer hold per queued cycle); charged at the
  /// current mode's Vcc and reported as the "contention.<level>" category.
  static constexpr double kCapPerGrantF = 2e-14;
  static constexpr double kCapPerQueuedCycleF = 5e-15;

  /// Declares the requester of the next forwarded request(s). Called once
  /// per interleaver step — one record per core per round — so it is
  /// inline and branch-free beyond the range check.
  void begin_request(std::size_t requester) {
    expects(requester < grants_.size(), "requester id out of range");
    current_ = requester;
  }
  /// Closes a round in O(1): per-requester occupancy is reset lazily by
  /// bumping the round sequence number — a grant that finds its
  /// requester's stamp stale zeroes that entry before using it (see
  /// grant()), so the per-round clear loop never runs in the hot path.
  void new_round() noexcept {
    ++round_seq_;
    round_busy_total_ = 0;
    round_opened_ = false;
  }

  /// Operating voltage for the arbitration-energy model (updated on mode
  /// switches by sim::System).
  void set_vcc(double vcc) noexcept {
    vcc_ = vcc;
    uncontended_grant_j_ = kCapPerGrantF * vcc * vcc;
  }

  [[nodiscard]] const std::string& level_name() const noexcept override {
    return inner_.level_name();
  }
  /// Scalar demand access through the arbiter: the inner level's latency
  /// composed with this request's queueing delay. (The batch entry point
  /// is inherited: the default scalar loop IS the exact path here, since
  /// arbitration is ordering-sensitive by construction.)
  AccessResult access(std::uint64_t addr, AccessType type,
                      std::uint32_t store_value = 0) override;
  std::size_t fetch_block(std::uint64_t addr, std::uint32_t* out,
                          std::size_t count) override;
  std::size_t writeback_block(std::uint64_t addr, const std::uint32_t* words,
                              std::size_t count) override;
  [[nodiscard]] std::uint32_t load_word(std::uint64_t addr) override;
  std::size_t store_word(std::uint64_t addr, std::uint32_t value) override;

  void set_mode(power::Mode mode) override { inner_.set_mode(mode); }
  ScrubReport scrub() override { return inner_.scrub(); }
  void flush() override { inner_.flush(); }
  void reset() override { inner_.reset(); }

  /// Inner level's snapshot with the contention counters filled in.
  [[nodiscard]] LevelStats level_stats() const override;
  void clear_level_counters() override;

  // --- contention introspection (tests, reports) ---
  [[nodiscard]] std::uint64_t contention_cycles() const noexcept {
    return contention_cycles_;
  }
  [[nodiscard]] std::uint64_t contended_requests() const noexcept {
    return contended_requests_;
  }
  /// Requests granted per requester since the last counter clear.
  [[nodiscard]] const std::vector<std::uint64_t>& grants() const noexcept {
    return grants_;
  }
  /// Rounds in which this requester was granted first (zero queueing); the
  /// interleaver's rotation keeps these within 1 of each other under
  /// uniform demand.
  [[nodiscard]] const std::vector<std::uint64_t>& priority_grants()
      const noexcept {
    return priority_grants_;
  }
  /// Energy spent by the arbitration hardware itself (J since last clear).
  [[nodiscard]] double arbitration_energy_j() const noexcept {
    return arbitration_energy_j_;
  }
  [[nodiscard]] std::size_t requesters() const noexcept {
    return grants_.size();
  }
  [[nodiscard]] MemoryLevel& inner() noexcept { return inner_; }

 private:
  /// Queues one granted request of `service` cycles behind the round's
  /// other requesters; returns the composed (queue + service) latency.
  /// The word fallback path has no latency return to compose into, so it
  /// passes `latency_applies = false`: the grant still occupies the round
  /// (and counts), but no queueing delay is recorded or charged.
  [[nodiscard]] std::size_t grant(std::size_t service_cycles,
                                  bool latency_applies = true);

  MemoryLevel& inner_;
  double vcc_;
  /// Pre-resolved (kCapPerGrantF * vcc^2): the energy of a grant with
  /// zero queued cycles. Bit-identical to evaluating the full expression
  /// with delay == 0 — the delay term multiplies to +0.0 and adding +0.0
  /// to the positive grant term is exact in IEEE arithmetic — so the hot
  /// uncontended path charges one precomputed double; contended grants
  /// keep the full expression verbatim.
  double uncontended_grant_j_ = 0.0;
  std::size_t current_ = 0;
  /// Per-round occupancy: service cycles per requester, valid only where
  /// round_stamp_ matches round_seq_ (epoch-lazy reset: new_round() bumps
  /// the sequence instead of clearing the arrays).
  std::vector<std::uint64_t> round_busy_;
  std::vector<std::uint64_t> round_stamp_;
  std::uint64_t round_seq_ = 0;
  std::uint64_t round_busy_total_ = 0;
  bool round_opened_ = false;  ///< a request was granted this round
  std::vector<std::uint64_t> grants_;
  std::vector<std::uint64_t> priority_grants_;
  std::uint64_t contended_requests_ = 0;
  std::uint64_t contention_cycles_ = 0;
  double arbitration_energy_j_ = 0.0;
};

}  // namespace hvc::cache
