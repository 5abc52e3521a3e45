// Golden outputs: every committed example spec, run through run_sweep,
// must print exactly the CSV bytes committed under tests/golden/. The
// goldens were written by `hvc_explore --spec examples/<spec>.json --out
// tests/golden/<spec>.csv` and do not move with the code, so a change to
// any layer a sweep passes through (sizing, generation, the cache and
// EDC datapath, replay, roll-up, formatting) shows up here as the first
// differing row and column.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "hvc/common/io.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/explore/spec.hpp"

namespace hvc::explore {
namespace {

[[nodiscard]] std::vector<std::string> split(const std::string& text,
                                             char separator) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = text.find(separator, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) {
      return parts;
    }
    start = end + 1;
  }
}

/// Describes where `actual` first departs from `expected`: the row (1 =
/// first data row), the column name and both cells. The example specs
/// never need CSV quoting, so a plain comma split finds the cell.
[[nodiscard]] std::string first_difference(const std::string& expected,
                                           const std::string& actual) {
  const std::vector<std::string> want = split(expected, '\n');
  const std::vector<std::string> got = split(actual, '\n');
  const std::vector<std::string> header = split(want.front(), ',');
  for (std::size_t row = 0; row < want.size() || row < got.size(); ++row) {
    if (row >= want.size() || row >= got.size()) {
      return "row " + std::to_string(row) + ": " +
             (row >= got.size() ? "missing from the output"
                                : "not in the golden file");
    }
    if (want[row] == got[row]) {
      continue;
    }
    const std::vector<std::string> want_cells = split(want[row], ',');
    const std::vector<std::string> got_cells = split(got[row], ',');
    for (std::size_t col = 0;
         col < want_cells.size() || col < got_cells.size(); ++col) {
      const std::string want_cell =
          col < want_cells.size() ? want_cells[col] : "<none>";
      const std::string got_cell =
          col < got_cells.size() ? got_cells[col] : "<none>";
      if (want_cell != got_cell) {
        std::string out = "row " + std::to_string(row) + ", column ";
        out += col < header.size() ? header[col] : std::to_string(col);
        out += ": golden " + want_cell + ", got " + got_cell;
        return out;
      }
    }
    return "row " + std::to_string(row) + " differs";
  }
  return "no difference";
}

class GoldenSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenSweep, CsvMatchesCommittedBytes) {
  const std::string name = GetParam();
  const SweepSpec spec = SweepSpec::parse(
      read_text_file(std::string(HVC_EXAMPLES_DIR) + "/" + name + ".json"));
  const std::string golden =
      read_text_file(std::string(HVC_GOLDEN_DIR) + "/" + name + ".csv");
  // Rows are byte-identical at any thread count; four keeps the Debug
  // build's largest spec within a few tens of seconds.
  const std::string csv = run_sweep(spec, 4).to_csv();
  EXPECT_TRUE(csv == golden) << name << ": " << first_difference(golden, csv);
}

INSTANTIATE_TEST_SUITE_P(Examples, GoldenSweep,
                         ::testing::Values("fig2", "fig3", "fig4", "l2_sweep",
                                           "multicore_sweep", "resume_sweep",
                                           "sweep_vcc"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace hvc::explore
