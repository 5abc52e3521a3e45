// Planner layer of the sweep engine: a pull interface over sweep points.
//
// A PointSource produces fully-resolved SweepPoints on demand instead of
// materializing a whole design space up front. The executor pulls a batch
// at a time, so a 10M-point grid spec never allocates 10M points — the
// source holds an odometer, not a vector — and non-grid producers (an
// adaptive searcher narrowing in on a Pareto front, a socket feeding
// points from a remote planner) drop into the same seam.
//
// Contract:
//  * next_batch() appends up to `max_points` points and returns how many
//    it appended; 0 means the source is exhausted (== done()).
//  * The order points come out of the source is the order rows go into
//    the sinks — for GridPointSource that is the documented nested-loop
//    order of spec.hpp, so a point's index (and therefore its RNG
//    stream) does not depend on how the plan is pulled.
//  * estimated_remaining() is exact for grid/list sources; adaptive
//    sources may estimate (it feeds --dry-run and progress totals, never
//    correctness).
#pragma once

#include <cstddef>
#include <vector>

#include "hvc/explore/spec.hpp"

namespace hvc::explore {

class PointSource {
 public:
  virtual ~PointSource() = default;

  /// Appends up to `max_points` points to `out` (not cleared); returns
  /// the number appended. Returns 0 iff the source is exhausted.
  virtual std::size_t next_batch(std::size_t max_points,
                                 std::vector<SweepPoint>& out) = 0;

  /// Points not yet produced. Exact for grid/list sources.
  [[nodiscard]] virtual std::size_t estimated_remaining() const = 0;

  [[nodiscard]] virtual bool done() const = 0;
};

/// The cartesian-grid planner, and the only grid enumerator:
/// enumerates a SweepSpec's points lazily in the documented nested-loop
/// order while holding O(axes) state however large the grid is.
/// expand_points() drains one; tests/test_explore_layers pins the order
/// against committed point lists (tests/golden/points/).
class GridPointSource final : public PointSource {
 public:
  explicit GridPointSource(const SweepSpec& spec);

  std::size_t next_batch(std::size_t max_points,
                         std::vector<SweepPoint>& out) override;
  [[nodiscard]] std::size_t estimated_remaining() const override {
    return total_ - produced_;
  }
  [[nodiscard]] bool done() const override { return produced_ == total_; }

 private:
  [[nodiscard]] SweepPoint current() const;
  void advance();

  SweepSpec spec_;
  // Normalized axis values (methodology sweeps collapse the degenerate
  // axes to one entry each).
  std::vector<bool> designs_;
  std::vector<std::string> l2_designs_;
  std::vector<double> l2_sizes_;
  std::vector<std::size_t> cores_;
  std::vector<power::Mode> modes_;
  std::vector<std::string> workloads_;  ///< plain names or per-core mixes
  std::vector<double> scrubs_;
  bool mixes_ = false;

  /// Odometer over (scenario, design, l2, l2_size, cores, mode, hp_vcc,
  /// ule_vcc, workload, scrub) — innermost last. The l2_size digit's base
  /// depends on the current l2 design ("none" collapses the size axis).
  std::size_t cursor_[10] = {0};
  std::size_t produced_ = 0;
  std::size_t total_ = 0;
};

/// A source over an explicit list of points, served in list order with
/// their given indices preserved (the index is the point's seed
/// identity, so a subset of a grid replays the exact same rows). Used by
/// tests and by callers that already know which points they want.
class ListPointSource final : public PointSource {
 public:
  explicit ListPointSource(std::vector<SweepPoint> points)
      : points_(std::move(points)) {}

  std::size_t next_batch(std::size_t max_points,
                         std::vector<SweepPoint>& out) override;
  [[nodiscard]] std::size_t estimated_remaining() const override {
    return points_.size() - next_;
  }
  [[nodiscard]] bool done() const override {
    return next_ == points_.size();
  }

 private:
  std::vector<SweepPoint> points_;
  std::size_t next_ = 0;
};

}  // namespace hvc::explore
