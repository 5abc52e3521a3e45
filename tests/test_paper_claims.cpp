// The paper's headline claims, checked against the committed golden
// sweeps rather than against a second code path:
//   - the average EPI saving of the proposed design over the baseline is
//     14% (scenario A) and 12% (B) at HP (Fig. 3), and 42% (A) and 39%
//     (B) at ULE (Fig. 4). Each saving is computed as sweepbench's
//     epi_saving_pct does — one minus the summed proposed epi_j over the
//     summed baseline epi_j of the scenario — and must lie within 5
//     percentage points of the paper's figure;
//   - the sizing methodology targets a per-cell Pf of 1.22e-6 (Fig. 2):
//     every row's target_pf lies within 1% of it;
//   - the proposed ULE way costs scenario A about 3% in execution time
//     (one extra SECDED decode cycle at ULE): summed proposed cycles over
//     summed baseline cycles in Fig. 4 lie within 1 point of it.
// Scenario B's ULE slowdown is not checked: both of its designs pay the
// same one-cycle decode at ULE, so the model reads 0.00%.
// The test reads tests/golden/fig2.csv, fig3.csv and fig4.csv only and
// runs no simulation; test_golden pins those files to the model.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "hvc/common/io.hpp"

namespace hvc {
namespace {

constexpr double kBandPct = 5.0;

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

[[nodiscard]] std::size_t column(const std::vector<std::string>& header,
                                 const std::string& name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) {
      return i;
    }
  }
  ADD_FAILURE() << "golden CSV has no column " << name;
  return header.size();
}

/// A golden CSV: its header, then one vector of cells per data row.
struct Golden {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t column(const std::string& name) const {
    return hvc::column(header, name);
  }
};

[[nodiscard]] Golden read_golden(const std::string& csv_name) {
  const std::string text =
      read_text_file(std::string(HVC_GOLDEN_DIR) + "/" + csv_name);
  const std::vector<std::string> lines = split(text, '\n');
  Golden golden;
  golden.header = split(lines.front(), ',');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> row = split(lines[i], ',');
    if (!lines[i].empty() && row.size() == golden.header.size()) {
      golden.rows.push_back(std::move(row));
    }
  }
  EXPECT_FALSE(golden.rows.empty()) << csv_name;
  return golden;
}

/// The proposed design's summed `metric` over the baseline's, among the
/// rows of `scenario` in one golden sweep.
[[nodiscard]] double proposed_over_baseline(const std::string& csv_name,
                                            const std::string& scenario,
                                            const std::string& metric) {
  const Golden golden = read_golden(csv_name);
  const std::size_t sc = golden.column("scenario");
  const std::size_t design = golden.column("design");
  const std::size_t value = golden.column(metric);
  double base = 0.0;
  double proposed = 0.0;
  std::size_t base_rows = 0;
  std::size_t proposed_rows = 0;
  for (const std::vector<std::string>& row : golden.rows) {
    if (row[sc] != scenario) {
      continue;
    }
    if (row[design] == "proposed") {
      proposed += std::stod(row[value]);
      ++proposed_rows;
    } else {
      base += std::stod(row[value]);
      ++base_rows;
    }
  }
  EXPECT_GT(proposed_rows, 0u) << csv_name << " scenario " << scenario;
  EXPECT_EQ(proposed_rows, base_rows) << csv_name << " scenario " << scenario;
  EXPECT_GT(base, 0.0) << csv_name << " scenario " << scenario;
  return proposed / base;
}

/// Average EPI saving (%) of the proposed design in `scenario` over the
/// rows of one golden sweep.
[[nodiscard]] double epi_saving_pct(const std::string& csv_name,
                                    const std::string& scenario) {
  return (1.0 - proposed_over_baseline(csv_name, scenario, "epi_j")) * 100.0;
}

struct Claim {
  const char* csv;
  const char* scenario;
  double paper_pct;
};

class PaperClaim : public ::testing::TestWithParam<Claim> {};

TEST_P(PaperClaim, EpiSavingWithinBandOfPaper) {
  const Claim& claim = GetParam();
  const double saving = epi_saving_pct(claim.csv, claim.scenario);
  EXPECT_NEAR(saving, claim.paper_pct, kBandPct)
      << claim.csv << " scenario " << claim.scenario << ": model saves "
      << saving << "%, the paper reports " << claim.paper_pct << "%";
}

INSTANTIATE_TEST_SUITE_P(
    Fig3AndFig4, PaperClaim,
    ::testing::Values(Claim{"fig3.csv", "A", 14.0}, Claim{"fig3.csv", "B", 12.0},
                      Claim{"fig4.csv", "A", 42.0}, Claim{"fig4.csv", "B", 39.0}),
    [](const ::testing::TestParamInfo<Claim>& info) {
      return std::string(info.param.csv[3] == '3' ? "HpFig3" : "UleFig4") +
             "Scenario" + info.param.scenario;
    });

TEST(GoldenClaim, Fig2TargetPfWithinOnePercentOfPaper) {
  constexpr double kPaperTargetPf = 1.22e-6;
  const Golden golden = read_golden("fig2.csv");
  const std::size_t target_pf = golden.column("target_pf");
  for (const std::vector<std::string>& row : golden.rows) {
    EXPECT_NEAR(std::stod(row[target_pf]), kPaperTargetPf,
                0.01 * kPaperTargetPf)
        << "fig2.csv point " << row.front();
  }
}

TEST(GoldenClaim, UleSlowdownScenarioAWithinOnePointOfPaper) {
  constexpr double kPaperSlowdownPct = 3.0;
  const double slowdown_pct =
      (proposed_over_baseline("fig4.csv", "A", "cycles") - 1.0) * 100.0;
  EXPECT_NEAR(slowdown_pct, kPaperSlowdownPct, 1.0)
      << "the proposed ULE way slows scenario A by " << slowdown_pct
      << "%, the paper reports about " << kPaperSlowdownPct << "%";
}

}  // namespace
}  // namespace hvc
