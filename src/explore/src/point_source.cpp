#include "hvc/explore/point_source.hpp"

#include <algorithm>

#include "hvc/common/error.hpp"

namespace hvc::explore {

GridPointSource::GridPointSource(const SweepSpec& spec) : spec_(spec) {
  const bool simulation = spec_.kind == SweepKind::kSimulation;
  // A methodology sweep's design/hierarchy/mode/workload/scrub axes
  // collapse to one iteration each.
  designs_ = simulation ? spec_.designs : std::vector<bool>{false};
  l2_designs_ =
      simulation ? spec_.l2_designs : std::vector<std::string>{"none"};
  l2_sizes_ = simulation ? spec_.l2_size_kbs : std::vector<double>{64.0};
  cores_ = simulation ? spec_.cores : std::vector<std::size_t>{1};
  modes_ = simulation ? spec_.modes
                      : std::vector<power::Mode>{power::Mode::kHp};
  mixes_ = simulation && !spec_.workload_mixes.empty();
  workloads_ = !simulation ? std::vector<std::string>{""}
               : mixes_    ? spec_.workload_mixes
                           : spec_.workloads;
  scrubs_ = simulation ? spec_.scrub_intervals_s : std::vector<double>{0.0};
  total_ = spec_.point_count();
}

SweepPoint GridPointSource::current() const {
  SweepPoint point;
  point.index = produced_;
  point.scenario = spec_.scenarios[cursor_[0]];
  point.proposed = designs_[cursor_[1]];
  point.l2_design = l2_designs_[cursor_[2]];
  point.l2_size_kb = l2_sizes_[cursor_[3]];
  point.cores = cores_[cursor_[4]];
  point.mode = modes_[cursor_[5]];
  point.hp_vcc = spec_.hp_vccs[cursor_[6]];
  point.ule_vcc = spec_.ule_vccs[cursor_[7]];
  (mixes_ ? point.workload_mix : point.workload) = workloads_[cursor_[8]];
  point.scrub_interval_s = scrubs_[cursor_[9]];
  return point;
}

void GridPointSource::advance() {
  // Odometer increment, innermost digit first. The only non-rectangular
  // axis is l2_size: the "none" hierarchy shape has no L2 to size, so its
  // size digit rolls over after a single value (SweepSpec::point_count
  // counts the same collapse).
  const std::size_t bases[10] = {
      spec_.scenarios.size(),
      designs_.size(),
      l2_designs_.size(),
      l2_designs_[cursor_[2]] == "none" ? 1 : l2_sizes_.size(),
      cores_.size(),
      modes_.size(),
      spec_.hp_vccs.size(),
      spec_.ule_vccs.size(),
      workloads_.size(),
      scrubs_.size(),
  };
  for (int digit = 9; digit >= 0; --digit) {
    if (++cursor_[digit] < bases[digit]) {
      return;
    }
    cursor_[digit] = 0;
  }
}

std::size_t GridPointSource::next_batch(std::size_t max_points,
                                        std::vector<SweepPoint>& out) {
  const std::size_t count = std::min(max_points, total_ - produced_);
  out.reserve(out.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(current());
    ++produced_;
    advance();
  }
  return count;
}

std::vector<SweepPoint> expand_points(const SweepSpec& spec) {
  GridPointSource source(spec);
  std::vector<SweepPoint> points;
  source.next_batch(source.estimated_remaining(), points);
  return points;
}

std::size_t ListPointSource::next_batch(std::size_t max_points,
                                        std::vector<SweepPoint>& out) {
  const std::size_t count =
      std::min(max_points, points_.size() - next_);
  out.reserve(out.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(points_[next_++]);
  }
  return count;
}

}  // namespace hvc::explore
