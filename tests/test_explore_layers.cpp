// The layered sweep engine's seams: GridPointSource must enumerate the
// committed point lists (tests/golden/points/) at any batch size (point
// index == RNG stream identity, so this is a determinism pin, not a
// style check), ListPointSource preserves given indices, the sinks
// format/tally rows faithfully, and an Executor fed a subset of a grid
// reproduces the matching rows of a full run_sweep byte-for-byte. A run
// generates each workload trace once, whatever its thread count, and
// keeps none once it ends.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/common/io.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/explore/executor.hpp"
#include "hvc/explore/point_source.hpp"
#include "hvc/explore/sink.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"

namespace hvc::explore {
namespace {

// Every normalization rule at once: an l2 axis whose "none" entry
// collapses the size axis, multiple cores, both modes, and a scrub axis.
constexpr const char* kGridSpec = R"({
  "name": "layers",
  "kind": "simulation",
  "seed": 7,
  "axes": {
    "scenario": ["A", "B"],
    "design": ["baseline", "proposed"],
    "l2": ["none", "baseline"],
    "l2_size_kb": [64, 128],
    "mode": ["hp", "ule"],
    "workload": ["adpcm_c", "gsm_c"],
    "scrub_interval_s": [0, 0.5]
  }
})";

constexpr const char* kMixSpec = R"({
  "name": "mixes",
  "kind": "simulation",
  "axes": {
    "scenario": ["A"],
    "design": ["proposed"],
    "cores": [1, 2],
    "mode": ["hp"],
    "workload_mix": ["adpcm_c+gsm_c", "epic_d"]
  }
})";

constexpr const char* kMethodologySpec = R"({
  "name": "methodology",
  "kind": "methodology",
  "axes": {
    "scenario": ["A", "B"],
    "ule_vcc": {"from": 0.3, "to": 0.4, "step": 0.05}
  }
})";

[[nodiscard]] std::vector<SweepPoint> drain(PointSource& source,
                                            std::size_t batch) {
  std::vector<SweepPoint> points;
  while (source.next_batch(batch, points) > 0) {
  }
  return points;
}

void expect_same_points(const std::vector<SweepPoint>& actual,
                        const std::vector<SweepPoint>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SweepPoint& a = actual[i];
    const SweepPoint& e = expected[i];
    EXPECT_EQ(a.index, e.index) << "point " << i;
    EXPECT_EQ(a.scenario, e.scenario) << "point " << i;
    EXPECT_EQ(a.proposed, e.proposed) << "point " << i;
    EXPECT_EQ(a.l2_design, e.l2_design) << "point " << i;
    EXPECT_EQ(a.l2_size_kb, e.l2_size_kb) << "point " << i;
    EXPECT_EQ(a.cores, e.cores) << "point " << i;
    EXPECT_EQ(a.mode, e.mode) << "point " << i;
    EXPECT_EQ(a.hp_vcc, e.hp_vcc) << "point " << i;
    EXPECT_EQ(a.ule_vcc, e.ule_vcc) << "point " << i;
    EXPECT_EQ(a.workload, e.workload) << "point " << i;
    EXPECT_EQ(a.workload_mix, e.workload_mix) << "point " << i;
    EXPECT_EQ(a.scrub_interval_s, e.scrub_interval_s) << "point " << i;
  }
}

/// One point as a line of its committed list: every field, doubles in
/// %.17g so the text round-trips exactly.
[[nodiscard]] std::string point_line(const SweepPoint& p) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%zu,%s,%s,%s,%.17g,%zu,%s,%.17g,%.17g,%s,%s,%.17g",
                p.index, yield::to_string(p.scenario),
                p.proposed ? "proposed" : "baseline", p.l2_design.c_str(),
                p.l2_size_kb, p.cores,
                p.mode == power::Mode::kHp ? "hp" : "ule", p.hp_vcc,
                p.ule_vcc, p.workload.c_str(), p.workload_mix.c_str(),
                p.scrub_interval_s);
  return buf;
}

/// The committed point list of a spec: its header line, then one line
/// per point in enumeration order.
[[nodiscard]] std::vector<std::string> golden_lines(const std::string& name) {
  const std::string text = read_text_file(std::string(HVC_GOLDEN_DIR) +
                                          "/points/" + name + ".csv");
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t end = text.find('\n'); end != std::string::npos;
       end = text.find('\n', start)) {
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(GridPointSourceTest, MatchesGoldenPointListsAtEveryBatchSize) {
  std::size_t checked = 0;
  for (const char* text : {kGridSpec, kMixSpec, kMethodologySpec}) {
    const SweepSpec spec = SweepSpec::parse(text);
    const std::vector<std::string> golden = golden_lines(spec.name);
    ASSERT_GE(golden.size(), 2u) << spec.name;
    const std::vector<std::string> expected(golden.begin() + 1, golden.end());
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}, std::size_t{1000}}) {
      GridPointSource source(spec);
      EXPECT_EQ(source.estimated_remaining(), expected.size());
      EXPECT_FALSE(source.done());
      const std::vector<SweepPoint> points = drain(source, batch);
      ASSERT_EQ(points.size(), expected.size()) << spec.name;
      for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(point_line(points[i]), expected[i])
            << spec.name << " point " << i << " at batch " << batch;
      }
      EXPECT_TRUE(source.done());
      EXPECT_EQ(source.estimated_remaining(), 0u);
      // An exhausted source stays exhausted.
      std::vector<SweepPoint> extra;
      EXPECT_EQ(source.next_batch(batch, extra), 0u);
    }
    // expand_points() yields the same list.
    std::vector<std::string> expanded;
    for (const SweepPoint& point : expand_points(spec)) {
      expanded.push_back(point_line(point));
    }
    EXPECT_EQ(expanded, expected) << spec.name;
    checked += expected.size();
  }
  EXPECT_EQ(checked, 106u);
}

TEST(GridPointSourceTest, L2NoneCollapsesTheSizeAxis) {
  const SweepSpec spec = SweepSpec::parse(kGridSpec);
  // l2="none" contributes 1 (not 2) size variants, so the lazy count and
  // the eager expansion must both see the collapse: 2 scenarios x 2
  // designs x (1 + 2) hierarchy shapes x 2 modes x 2 workloads x 2
  // scrub intervals.
  EXPECT_EQ(spec.point_count(), 96u);
  GridPointSource source(spec);
  EXPECT_EQ(source.estimated_remaining(), spec.point_count());
  EXPECT_EQ(source.estimated_remaining(), expand_points(spec).size());
}

TEST(GridPointSourceTest, CountMatchesAcrossPartialDrain) {
  const SweepSpec spec = SweepSpec::parse(kGridSpec);
  GridPointSource source(spec);
  const std::size_t total = source.estimated_remaining();
  std::vector<SweepPoint> points;
  ASSERT_EQ(source.next_batch(5, points), 5u);
  EXPECT_EQ(source.estimated_remaining(), total - 5);
  // next_batch appends without clearing.
  ASSERT_EQ(source.next_batch(5, points), 5u);
  EXPECT_EQ(points.size(), 10u);
  EXPECT_EQ(points[7].index, 7u);
}

TEST(ListPointSourceTest, PreservesGivenIndicesAndOrder) {
  const SweepSpec spec = SweepSpec::parse(kGridSpec);
  const std::vector<SweepPoint> all = expand_points(spec);
  // A non-contiguous subset, deliberately out of grid order.
  std::vector<SweepPoint> subset{all[9], all[2], all[31]};
  ListPointSource source(subset);
  EXPECT_EQ(source.estimated_remaining(), 3u);
  const std::vector<SweepPoint> drained = drain(source, 2);
  expect_same_points(drained, subset);
  EXPECT_EQ(drained[0].index, 9u);
  EXPECT_EQ(drained[1].index, 2u);
  EXPECT_EQ(drained[2].index, 31u);
}

TEST(SinkTest, CsvSinkMatchesSweepResultToCsv) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  const SweepResult reference = run_sweep(spec, 1);

  std::string csv;
  CsvSink sink(&csv);
  sink.begin(spec, reference.columns);
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    sink.row(i, SweepPoint{}, reference.rows[i], false);
  }
  sink.end();
  EXPECT_EQ(csv, reference.to_csv());
}

TEST(SinkTest, JsonSinkMatchesSweepResultToJson) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  const SweepResult reference = run_sweep(spec, 1);

  Json json;
  JsonSink sink(&json);
  sink.begin(spec, reference.columns);
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    sink.row(i, SweepPoint{}, reference.rows[i], false);
  }
  sink.end();
  EXPECT_EQ(json.dump(2), reference.to_json().dump(2));
}

TEST(SinkTest, TeeFansOutInOrderAndIgnoresNull) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  const SweepResult reference = run_sweep(spec, 1);

  std::string csv;
  CsvSink csv_sink(&csv);
  SweepResult collected;
  CollectSink collect(&collected);
  TeeSink tee;
  tee.add(&csv_sink);
  tee.add(nullptr);  // optional sinks compose without branching
  tee.add(&collect);

  tee.begin(spec, reference.columns);
  for (std::size_t i = 0; i < reference.rows.size(); ++i) {
    tee.row(i, SweepPoint{}, reference.rows[i], i % 2 == 0);
  }
  tee.end();

  EXPECT_EQ(csv, reference.to_csv());
  EXPECT_EQ(collected.rows, reference.rows);
  EXPECT_EQ(collected.warm_points + collected.cold_points,
            reference.rows.size());
}

TEST(ExecutorTest, SubsetViaListSourceReproducesFullSweepRows) {
  // The executor must derive each point's randomness from its index, not
  // its arrival order: replaying points {5, 0, 11} through a list source
  // must reproduce exactly rows 5, 0, 11 of the full sweep.
  const SweepSpec spec = SweepSpec::parse(R"({
    "name": "subset",
    "kind": "simulation",
    "seed": 13,
    "axes": {
      "scenario": ["A"],
      "design": ["baseline", "proposed"],
      "mode": ["hp", "ule"],
      "workload": ["adpcm_c", "gsm_c", "epic_d"]
    }
  })");
  const SweepResult full = run_sweep(spec, 4);
  const std::vector<SweepPoint> all = expand_points(spec);
  ASSERT_EQ(all.size(), 12u);

  ListPointSource source({all[5], all[0], all[11]});
  Executor executor(2);
  SweepResult subset;
  CollectSink collect(&subset);
  const ExecStats stats = executor.run(spec, source, collect);
  EXPECT_EQ(stats.points, 3u);
  ASSERT_EQ(subset.rows.size(), 3u);
  EXPECT_EQ(subset.rows[0], full.rows[5]);
  EXPECT_EQ(subset.rows[1], full.rows[0]);
  EXPECT_EQ(subset.rows[2], full.rows[11]);
}

TEST(ExecutorTest, CancelledExecutorRefusesNewRuns) {
  const SweepSpec spec = SweepSpec::parse(kMethodologySpec);
  Executor executor(1);
  executor.cancel();
  GridPointSource source(spec);
  SweepResult result;
  CollectSink collect(&result);
  EXPECT_THROW(executor.run(spec, source, collect), SweepCancelled);
}

TEST(ExecutorTest, SweepColumnsMatchRunSweep) {
  const SweepSpec sim = SweepSpec::parse(kMixSpec);
  EXPECT_EQ(sweep_columns(SweepKind::kSimulation),
            run_sweep(sim, 1).columns);
  const SweepSpec meth = SweepSpec::parse(kMethodologySpec);
  EXPECT_EQ(sweep_columns(SweepKind::kMethodology),
            run_sweep(meth, 1).columns);
}

/// One run of `spec` on `executor`, rows collected and dropped.
ExecStats run_spec(Executor& executor, const SweepSpec& spec) {
  GridPointSource source(spec);
  SweepResult result;
  CollectSink collect(&result);
  return executor.run(spec, source, collect);
}

[[nodiscard]] SweepSpec example_spec(const std::string& file) {
  return SweepSpec::parse(
      read_text_file(std::string(HVC_EXAMPLES_DIR) + "/" + file));
}

TEST(TraceMemoTest, EachTraceIsGeneratedOncePerRunAtAnyThreadCount) {
  // One generation per (workload, per-core seed, scale): fig3's 24 points
  // replay 6 kernels; multicore_sweep's 42 per-core uses come from 6
  // (kernel, core seed) pairs; sweep_vcc's 592 points replay 4 kernels.
  struct Case {
    const char* file;
    std::size_t points;
    std::size_t traces;
  };
  for (const Case& c : {Case{"fig3.json", 24, 6},
                        Case{"multicore_sweep.json", 18, 6},
                        Case{"sweep_vcc.json", 592, 4}}) {
    const SweepSpec spec = example_spec(c.file);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      Executor executor(threads);
      const ExecStats stats = run_spec(executor, spec);
      EXPECT_EQ(stats.points, c.points) << c.file;
      EXPECT_EQ(stats.traces_generated, c.traces)
          << c.file << " at " << threads << " threads";
    }
  }
}

TEST(TraceMemoTest, TheMemoEndsWithItsRun) {
  // A long-lived executor (the daemon's) keeps no trace between runs, so
  // a second run of the same spec generates every trace again.
  const SweepSpec spec = example_spec("fig3.json");
  Executor executor(4);
  EXPECT_EQ(run_spec(executor, spec).traces_generated, 6u);
  EXPECT_EQ(run_spec(executor, spec).traces_generated, 6u);
}

TEST(TraceMemoTest, TraceReferencesStreamFromDiskAndAreNotMemoized) {
  const std::string path = ::testing::TempDir() + "hvc_memo_adpcm_c.hvct";
  {
    const wl::WorkloadResult capture = wl::find_workload("adpcm_c").run(1, 1);
    (void)trace::write_trace(path, capture.tracer);
  }
  const SweepSpec spec = SweepSpec::parse(R"({
    "name": "memo_trace_ref",
    "kind": "simulation",
    "axes": {
      "scenario": ["A"],
      "design": ["baseline", "proposed"],
      "mode": ["hp", "ule"],
      "workload": ["epic_d", "trace:)" + path + R"("]
    }
  })");
  Executor executor(2);
  const ExecStats stats = run_spec(executor, spec);
  EXPECT_EQ(stats.points, 8u);
  EXPECT_EQ(stats.traces_generated, 1u);  // epic_d only
}

}  // namespace
}  // namespace hvc::explore
