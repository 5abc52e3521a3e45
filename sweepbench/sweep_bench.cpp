// End-to-end sweep benchmark for hvcache.
//
//   sweep_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--tiny] [--corrupt-row] [--commit SHA] [--tmp DIR]
//
// Runs one workload through the public explore/store APIs (Executor,
// ResultSink, ResultStore, Service and its socket protocol), checks every
// output it produces, and prints one JSON result line as the last line of
// stdout. With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 a separate traced run drives each point through the layer
// entry points in the order the executor's simulate_point calls them
// (sizing, generation, System build, replay, EPI roll-up), keeps its
// spans in memory, writes them to <tmp>/spans-<workload>-<seed>.jsonl and
// reports per-layer metrics. Run from the repository root (the specs are
// read from examples/).
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   fig3_hp_cold   examples/fig3.json, cold, no store
//   ule_vcc_store  examples/sweep_vcc.json, cold into a fresh result store
//   multicore_mix  examples/multicore_sweep.json, cold, no store
//   daemon_warm    fig3+fig4+l2_sweep+multicore_sweep prefilled into a
//                  store, then a closed loop of socket clients sending
//                  seeded slices of them to an in-process Service
//
// --seed sets every spec's seed and workload_seed, the system_seed of the
// specs that pin one, and the daemon's slice and query sequence.
// --tiny trims every spec to a few points (the self-test uses it);
// --corrupt-row damages one row before the 1-thread comparison, so the
// output check must fail.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/common/io.hpp"
#include "hvc/common/json.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/common/socket.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/explore/executor.hpp"
#include "hvc/explore/point_source.hpp"
#include "hvc/explore/result_store.hpp"
#include "hvc/explore/service.hpp"
#include "hvc/explore/sink.hpp"
#include "hvc/explore/spec.hpp"
#include "hvc/sim/report.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/store/store.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/workloads/workload.hpp"
#include "hvc/yield/methodology.hpp"

#ifndef HVC_BENCH_BUILD_TYPE
#define HVC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HVC_BENCH_COMPILER
#define HVC_BENCH_COMPILER "unknown"
#endif

namespace {

namespace ex = hvc::explore;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Clocks, resources, statistics
// ---------------------------------------------------------------------

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Process CPU time, user + system.
[[nodiscard]] double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Peak resident memory since the process started or since the last
/// reset_peak_rss(): VmHWM, falling back to ru_maxrss (never reset).
[[nodiscard]] double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Hands freed heap back to the system and restarts the VmHWM high-water
/// mark from the current resident size, so a later peak_rss_mb() covers
/// only what runs after this call. Returns false where unsupported.
bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", refs) >= 0;
  return std::fclose(refs) == 0 && ok;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

template <typename T>
[[nodiscard]] double median(std::vector<T> values) {
  return quantile(std::move(values), 0.5);
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_row = false;
  std::string commit = "unknown";
  std::string tmp_dir = ".bench_tmp";
};

[[nodiscard]] Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-row") {
      options.corrupt_row = true;
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--tmp") {
      options.tmp_dir = value();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (options.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

// ---------------------------------------------------------------------
// Result line and output checks
// ---------------------------------------------------------------------

class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      check(false, "metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Work items (points, queries) that ran to completion.
  void attempt(std::size_t items) { attempted_ += items; }

  /// Work items that failed; each counts toward failed_ratio.
  void fail(std::size_t items, const std::string& what) {
    attempted_ += items;
    failed_ += items;
    std::printf("FAILED (%zu): %s\n", items, what.c_str());
  }

  /// One output check: counts as one attempted item, failed when !ok.
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  void print_result() const {
    std::printf("failed_ratio: %.6g (%zu of %zu points, queries and checks)\n",
                ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)),
                failed_, attempted_);
    std::string line = "{\"correct\": ";
    line += failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.15g", metrics_[i].value);
      line += i == 0 ? "" : ", ";
      line += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Compares two sweep CSVs byte for byte; names the first differing line.
bool check_csv(Report& report, const std::string& got,
               const std::string& want, const std::string& what) {
  if (got == want) {
    return report.check(true, what);
  }
  std::size_t line = 1;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      break;
    }
    line += got[i] == '\n' ? 1 : 0;
  }
  return report.check(false, what + " (first difference on line " +
                                 std::to_string(line) + ")");
}

// ---------------------------------------------------------------------
// Workloads and specs
// ---------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  std::vector<std::string> spec_files;
  bool store = false;   ///< cold sweep committed into a fresh result store
  bool daemon = false;  ///< warm closed loop through the Service
};

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"fig3_hp_cold", {"examples/fig3.json"}, false, false},
      {"ule_vcc_store", {"examples/sweep_vcc.json"}, true, false},
      {"multicore_mix", {"examples/multicore_sweep.json"}, false, false},
      {"daemon_warm",
       {"examples/fig3.json", "examples/fig4.json", "examples/l2_sweep.json",
        "examples/multicore_sweep.json"},
       false, true},
  };
  return defs;
}

template <typename Vec>
void keep_first(Vec& values, std::size_t n) {
  if (values.size() > n) {
    values.resize(n);
  }
}

/// Reads and parses one committed spec, re-seeded from the benchmark seed.
[[nodiscard]] ex::SweepSpec load_spec(const std::string& path,
                                      const Options& options) {
  ex::SweepSpec spec = ex::SweepSpec::parse(hvc::read_text_file(path));
  // Seeds reach the daemon as JSON numbers, exact only below 2^53.
  const std::uint64_t seed = options.seed & ((std::uint64_t{1} << 52) - 1);
  spec.seed = seed;
  if (spec.system_seed) {
    spec.system_seed = seed;
  }
  spec.workload_seed = seed;
  if (options.tiny) {
    keep_first(spec.l2_designs, 2);
    keep_first(spec.l2_size_kbs, 1);
    keep_first(spec.cores, 2);
    keep_first(spec.hp_vccs, 1);
    keep_first(spec.ule_vccs, 2);
    keep_first(spec.workloads, 1);
    keep_first(spec.workload_mixes, 1);
    keep_first(spec.scrub_intervals_s, 1);
  }
  return spec;
}

[[nodiscard]] std::vector<ex::SweepPoint> points_of(const ex::SweepSpec& spec) {
  std::vector<ex::SweepPoint> points;
  ex::GridPointSource source(spec);
  while (source.next_batch(256, points) > 0) {
  }
  return points;
}

[[nodiscard]] std::string csv_line(const std::vector<std::string>& cells) {
  std::string line;
  hvc::append_csv_line(line, cells);
  line.pop_back();
  return line;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written out once at the end of a traced run
// ---------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::string request;  ///< "<spec>#<point>@<pass>", "query-<n>", ...
  std::size_t thread = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t records = 0;  ///< generation/replay spans: trace records
  double decode_us = 0.0;     ///< replay spans: time inside the source
};

class SpanLog {
 public:
  /// Spans kept in memory; later ones are timed but not kept, which
  /// bounds the daemon's tens of thousands of queries per second.
  static constexpr std::size_t kMaxSpans = 50000;

  /// A disabled log reads no clock and keeps nothing: the same driver
  /// code runs with span recording off, which is the untraced side of
  /// the tracing-overhead comparison.
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  /// The clock spans are timed with; a fixed time when disabled.
  [[nodiscard]] Clock::time_point now() const {
    return enabled_ ? Clock::now() : epoch_;
  }

  [[nodiscard]] std::uint64_t reserve_id() { return enabled_ ? ++next_id_ : 0; }

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Records a finished span; returns its duration in microseconds.
  double add(Span span, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) {
      return 0.0;
    }
    span.start_us = us(start);
    span.end_us = us(end);
    if (span.id == 0) {
      span.id = reserve_id();
    }
    const double duration = span.end_us - span.start_us;
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(std::move(span));
    } else {
      ++dropped_;
    }
    return duration;
  }

  /// Writes one JSON object per line.
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      throw std::runtime_error("cannot write " + path);
    }
    for (const Span& span : spans_) {
      std::fprintf(file,
                   "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                   "\"request\": \"%s\", \"thread\": %zu, \"start_us\": %.3f, "
                   "\"end_us\": %.3f, \"records\": %llu, \"decode_us\": %.3f}\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.name,
                   span.request.c_str(), span.thread, span.start_us, span.end_us,
                   static_cast<unsigned long long>(span.records), span.decode_us);
    }
    const bool ok = std::fclose(file) == 0;
    std::printf("spans: %zu written to %s (%zu more timed, not kept)\n",
                spans_.size(), path.c_str(), dropped_);
    if (!ok) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// ---------------------------------------------------------------------
// Untraced sweeps through the public engine API
// ---------------------------------------------------------------------

/// Times every row a wrapped sink handles, as spans named `name`, and
/// the gaps between consecutive rows when `gaps_ms` is set.
class TimedSink final : public ex::ResultSink {
 public:
  TimedSink(ex::ResultSink& inner, SpanLog& log, const char* name,
            double* busy_us, std::vector<double>* gaps_ms = nullptr)
      : inner_(inner), log_(log), name_(name), busy_us_(busy_us),
        gaps_ms_(gaps_ms) {}

  void begin(const ex::SweepSpec& spec,
             const std::vector<std::string>& columns) override {
    spec_name_ = spec.name;
    inner_.begin(spec, columns);
  }

  void row(std::size_t seq, const ex::SweepPoint& point,
           const std::vector<std::string>& cells, bool warm) override {
    const auto start = Clock::now();
    inner_.row(seq, point, cells, warm);
    const auto end = Clock::now();
    Span span;
    span.name = name_;
    span.request = spec_name_ + "#" + std::to_string(point.index);
    *busy_us_ += log_.add(std::move(span), start, end);
    if (gaps_ms_ != nullptr && last_row_) {
      gaps_ms_->push_back(seconds_between(*last_row_, start) * 1e3);
    }
    last_row_ = start;
  }

  void end() override { inner_.end(); }

 private:
  ex::ResultSink& inner_;
  SpanLog& log_;
  const char* name_;
  double* busy_us_;
  std::vector<double>* gaps_ms_;
  std::string spec_name_;
  std::optional<Clock::time_point> last_row_;
};

/// Sink-layer figures of the traced engine pass.
struct SinkStats {
  double sink_us = 0.0;  ///< CsvSink time
  std::uint64_t sink_bytes = 0;
  std::vector<double> row_gaps_ms;
  std::size_t puts = 0;  ///< StoreCommitSink rows committed
  double put_us = 0.0;
};

/// One sweep through Executor + sinks, committing cold rows to `store`
/// when it is set. With `log`, the CSV sink and the store commits are
/// wrapped in timing spans (the traced engine pass).
[[nodiscard]] ex::SweepResult run_sweep_into(const ex::SweepSpec& spec,
                                             ex::Executor& executor,
                                             hvc::store::ResultStore* store,
                                             SpanLog* log = nullptr,
                                             SinkStats* stats = nullptr) {
  ex::SweepResult result;
  ex::CollectSink collect(&result);
  ex::GridPointSource source(spec);
  ex::TeeSink tee;
  tee.add(&collect);
  std::optional<ex::StoreCommitSink> commit;
  if (store != nullptr) {
    commit.emplace(store, spec);
  }
  std::string csv;
  ex::CsvSink csv_sink(&csv);
  std::optional<TimedSink> timed_csv;
  std::optional<TimedSink> timed_commit;
  if (log != nullptr) {
    timed_csv.emplace(csv_sink, *log, "explore.sink", &stats->sink_us,
                      &stats->row_gaps_ms);
    tee.add(&*timed_csv);
    if (commit) {
      timed_commit.emplace(*commit, *log, "store.put", &stats->put_us);
      tee.add(&*timed_commit);
    }
  } else if (commit) {
    tee.add(&*commit);
  }
  executor.run(spec, source, tee, store);
  if (stats != nullptr) {
    stats->sink_bytes += csv.size();
    stats->puts += commit ? commit->committed() : 0;
  }
  return result;
}

struct ColdRun {
  ex::SweepResult result;
  double setup_s = 0.0;  ///< spec read + parse, Executor start, store create
  double run_s = 0.0;    ///< Executor::run (+ store close)
  double cpu_s = 0.0;    ///< process CPU during run_s
};

/// One cold sweep as a batch user runs it: parse the spec, start an
/// Executor, optionally create a fresh store, sweep, close the store.
/// With `sweep` false only the set-up is timed.
[[nodiscard]] ColdRun cold_sweep(const std::string& spec_file,
                                 const Options& options, std::size_t threads,
                                 const std::string& store_path,
                                 bool sweep = true) {
  if (!store_path.empty()) {
    std::filesystem::remove(store_path);
  }
  ColdRun out;
  const auto t0 = Clock::now();
  const ex::SweepSpec spec = load_spec(spec_file, options);
  ex::Executor executor(threads);
  std::unique_ptr<hvc::store::ResultStore> store;
  if (!store_path.empty()) {
    store = ex::open_result_store(store_path, false);
  }
  const auto t1 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  const double cpu0 = cpu_seconds();
  if (sweep) {
    out.result = run_sweep_into(spec, executor, store.get());
  }
  if (store) {
    store->close();
  }
  out.run_s = seconds_since(t1);
  out.cpu_s = cpu_seconds() - cpu0;
  if (!store_path.empty()) {
    std::filesystem::remove(store_path);
  }
  return out;
}

/// Average EPI saving of the proposed design over the baseline for one
/// scenario, in percent (the bench_fig3/4 definition).
[[nodiscard]] double epi_saving_pct(const ex::SweepResult& result,
                                    const std::string& scenario) {
  const std::size_t sc = result.column("scenario");
  const std::size_t design = result.column("design");
  const std::size_t epi = result.column("epi_j");
  double base = 0.0;
  double proposed = 0.0;
  for (const auto& row : result.rows) {
    if (row[sc] != scenario) {
      continue;
    }
    (row[design] == "proposed" ? proposed : base) += std::stod(row[epi]);
  }
  return (1.0 - ratio(proposed, base)) * 100.0;
}

/// The paper's Fig. 3 (HP 14%/12%) and Fig. 4 (ULE 42%/39%) savings, at
/// the committed spec seeds, within +-5 percentage points.
void paper_check(Report& report, std::size_t threads) {
  struct Claim {
    const char* file;
    const char* label;
    double a;
    double b;
  };
  constexpr double kBandPct = 5.0;
  for (const Claim& claim : {Claim{"examples/fig3.json", "HP", 14.0, 12.0},
                             Claim{"examples/fig4.json", "ULE", 42.0, 39.0}}) {
    const ex::SweepSpec spec =
        ex::SweepSpec::parse(hvc::read_text_file(claim.file));
    const ex::SweepResult result = ex::run_sweep(spec, threads);
    const double a = epi_saving_pct(result, "A");
    const double b = epi_saving_pct(result, "B");
    std::printf("paper check: %s EPI saving %.1f%% (A) / %.1f%% (B); paper "
                "%.0f%% / %.0f%%\n",
                claim.label, a, b, claim.a, claim.b);
    report.check(std::abs(a - claim.a) <= kBandPct,
                 std::string(claim.label) + " scenario-A saving in band");
    report.check(std::abs(b - claim.b) <= kBandPct,
                 std::string(claim.label) + " scenario-B saving in band");
  }
}

/// Every workload's CSV must match a 1-thread run of the same spec.
void one_thread_check(Report& report, const ex::SweepSpec& spec,
                      const std::string& reference,
                      hvc::store::ResultStore* store, const Options& options) {
  ex::Executor executor(1);
  std::string csv = run_sweep_into(spec, executor, store).to_csv();
  if (options.corrupt_row) {
    csv[csv.find('\n') + 1] ^= 1;  // first data row's point index
  }
  check_csv(report, csv, reference, spec.name + " 1-thread CSV");
}

// ---------------------------------------------------------------------
// Traced layer pass: each point through the layer entry points
// ---------------------------------------------------------------------

/// Replays an in-memory capture, timing every pull (the decode layer)
/// with the log's clock.
class TimedSource final : public hvc::trace::TraceSource {
 public:
  TimedSource(const hvc::trace::Tracer& tracer, const SpanLog& log)
      : inner_(tracer), log_(log) {}

  bool next(hvc::trace::Record& out) override {
    const auto start = log_.now();
    const bool ok = inner_.next(out);
    ns_ += (log_.now() - start).count();
    records_ += ok ? 1 : 0;
    return ok;
  }
  std::size_t next_batch(hvc::trace::Record* out, std::size_t max) override {
    const auto start = log_.now();
    const std::size_t got = inner_.next_batch(out, max);
    ns_ += (log_.now() - start).count();
    records_ += got;
    return got;
  }
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return inner_.size_hint();
  }
  void reset() override { inner_.reset(); }

  [[nodiscard]] double decode_us() const {
    return static_cast<double>(ns_) * 1e-3;
  }
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  hvc::trace::MemoryTraceSource inner_;
  const SpanLog& log_;
  Clock::duration::rep ns_ = 0;
  std::uint64_t records_ = 0;
};

/// Simulated statistics of a pass. A change meant only to speed up the
/// simulator must leave every one of them identical.
struct SimCounts {
  std::uint64_t instructions = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t edc_corrections = 0;
  std::uint64_t edc_detected = 0;
  std::uint64_t contention_cycles = 0;

  bool operator==(const SimCounts&) const = default;
  SimCounts& operator+=(const SimCounts& o) {
    instructions += o.instructions;
    l1_accesses += o.l1_accesses;
    l1_misses += o.l1_misses;
    l2_accesses += o.l2_accesses;
    edc_corrections += o.edc_corrections;
    edc_detected += o.edc_detected;
    contention_cycles += o.contention_cycles;
    return *this;
  }
};

struct PointTrace {
  std::string shape;
  double point_us = 0.0;
  double size_us = 0.0;  ///< 0 unless this point ran the sizing call
  bool sized = false;
  double gen_us = 0.0;
  std::uint64_t gen_records = 0;
  std::vector<std::tuple<std::string, std::uint64_t, std::size_t>> gen_keys;
  double build_us = 0.0;
  double replay_us = 0.0;  ///< includes decode_us
  double decode_us = 0.0;
  std::uint64_t replay_records = 0;
  double rollup_us = 0.0;
  std::string instructions;
  std::string cycles;
  std::string total_energy;
  SimCounts counts;
};

/// The per-shape rows of the split table (scenario x mode x core count).
[[nodiscard]] std::string shape_of(const ex::SweepPoint& point) {
  if (point.cores > 1 || !point.workload_mix.empty()) {
    return "mc" + std::to_string(point.cores);
  }
  return std::string(point.mode == hvc::power::Mode::kHp ? "hp_" : "ule_") +
         (point.scenario == hvc::yield::Scenario::kA ? "a" : "b");
}

/// The System configuration the executor's simulate_point builds.
[[nodiscard]] hvc::sim::SystemConfig system_config(const ex::SweepSpec& spec,
                                                   const ex::SweepPoint& point) {
  hvc::sim::SystemConfig config;
  config.design.scenario = point.scenario;
  config.design.proposed = point.proposed;
  config.mode = point.mode;
  config.hp.vcc = point.hp_vcc;
  config.ule.vcc = point.ule_vcc;
  if (point.l2_design != "none") {
    hvc::sim::L2Spec l2;
    l2.org.size_bytes =
        static_cast<std::size_t>(point.l2_size_kb) * std::size_t{1024};
    l2.proposed = point.l2_design == "proposed";
    config.hierarchy.l2 = l2;
  }
  config.num_cores = point.cores;
  config.seed = spec.system_seed ? *spec.system_seed
                                 : hvc::Rng::mix64(spec.seed, point.index);
  return config;
}

/// One sizing run per (scenario, hp_vcc, ule_vcc, target_yield), as the
/// Executor's plan memo does; the thread that computes it times it.
class PlanMemo {
 public:
  const hvc::yield::CacheCellPlan& get(const ex::SweepSpec& spec,
                                       const ex::SweepPoint& point,
                                       PointTrace& trace, SpanLog& log,
                                       std::uint64_t parent,
                                       const std::string& request,
                                       std::size_t thread) {
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& entry = slots_[std::make_tuple(static_cast<int>(point.scenario),
                                           point.hp_vcc, point.ule_vcc,
                                           spec.target_yield)];
      if (!entry) {
        entry = std::make_shared<Slot>();
      }
      slot = entry;
    }
    std::call_once(slot->once, [&] {
      const auto start = log.now();
      hvc::yield::MethodologyConfig config;
      config.target_yield = spec.target_yield;
      slot->plan = hvc::yield::run_methodology(point.scenario, point.hp_vcc,
                                               point.ule_vcc, config);
      trace.sized = true;
      trace.size_us = log.add({.parent = parent, .name = "yield.size",
                               .request = request, .thread = thread},
                              start, log.now());
    });
    return slot->plan;
  }

 private:
  struct Slot {
    std::once_flag once;
    hvc::yield::CacheCellPlan plan;
  };
  std::mutex mutex_;
  std::map<std::tuple<int, double, double, double>, std::shared_ptr<Slot>>
      slots_;
};

[[nodiscard]] PointTrace trace_point(const ex::SweepSpec& spec,
                                     const ex::SweepPoint& point,
                                     PlanMemo& memo, SpanLog& log,
                                     const std::string& request,
                                     std::size_t thread) {
  PointTrace out;
  out.shape = shape_of(point);
  const auto point_start = log.now();
  const std::uint64_t point_id = log.reserve_id();
  const auto child = [&](const char* name) {
    return Span{.parent = point_id, .name = name, .request = request,
                .thread = thread};
  };

  // 1. Cell sizing.
  const hvc::yield::CacheCellPlan& plan =
      memo.get(spec, point, out, log, point_id, request, thread);

  // 2. Workload generation, one capture per core.
  const bool multicore = point.cores > 1 || !point.workload_mix.empty();
  const std::vector<std::string> assigned = point.core_workloads();
  const std::size_t cores = multicore ? point.cores : 1;
  std::vector<hvc::wl::WorkloadResult> captures;
  captures.reserve(cores);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < cores; ++c) {
    const std::string& name = assigned[c % assigned.size()];
    const std::uint64_t seed =
        multicore ? hvc::sim::System::core_workload_seed(spec.workload_seed, c)
                  : spec.workload_seed;
    const auto start = log.now();
    captures.push_back(hvc::wl::find_workload(name).run(seed, spec.scale));
    hvc::ensure(captures.back().self_check, "workload self-check failed: " + name);
    Span span = child("workloads.generate");
    span.records = captures.back().tracer.records().size();
    out.gen_records += span.records;
    out.gen_us += log.add(std::move(span), start, log.now());
    out.gen_keys.emplace_back(name, seed, spec.scale);
    names.push_back(name);
  }

  // 3. System build (fault-map sampling).
  auto start = log.now();
  hvc::sim::System system(system_config(spec, point), plan);
  out.build_us = log.add(child("sim.build"), start, log.now());

  // 4. Replay, fed through timing sources.
  std::vector<std::unique_ptr<TimedSource>> sources;
  std::vector<hvc::trace::TraceSource*> source_ptrs;
  for (const auto& capture : captures) {
    sources.push_back(std::make_unique<TimedSource>(capture.tracer, log));
    source_ptrs.push_back(sources.back().get());
  }
  start = log.now();
  const hvc::cpu::RunResult result =
      multicore ? system.run_mix_sources(source_ptrs, names).aggregate
                : system.run_trace(*sources.front());
  Span replay = child("cpu.replay");
  for (const auto& source : sources) {
    out.decode_us += source->decode_us();
    out.replay_records += source->records();
  }
  replay.records = out.replay_records;
  replay.decode_us = out.decode_us;
  out.replay_us = log.add(std::move(replay), start, log.now());

  // 5. Energy roll-up.
  start = log.now();
  const hvc::sim::EpiBreakdown epi = hvc::sim::epi_breakdown(result);
  hvc::ensure(std::isfinite(epi.total()), "non-finite EPI breakdown");
  out.instructions = hvc::format_number(result.instructions);
  out.cycles = hvc::format_number(result.cycles);
  out.total_energy = hvc::format_number(result.total_energy());
  out.rollup_us = log.add(child("sim.rollup"), start, log.now());

  SimCounts& counts = out.counts;
  counts.instructions = result.instructions;
  counts.l1_accesses = result.il1.accesses + result.dl1.accesses;
  counts.l1_misses = result.il1.misses + result.dl1.misses;
  counts.edc_corrections = result.il1.edc_corrections + result.dl1.edc_corrections;
  counts.edc_detected = result.il1.edc_detected + result.dl1.edc_detected;
  if (const hvc::cache::LevelStats* l2 = result.level("L2")) {
    counts.l2_accesses = l2->accesses;
    counts.edc_corrections += l2->edc_corrections;
    counts.edc_detected += l2->edc_detected;
  }
  for (const hvc::cache::LevelStats& level : result.levels) {
    counts.contention_cycles += level.contention_cycles;
  }

  Span point_span{.id = point_id, .name = "explore.point", .request = request,
                  .thread = thread};
  out.point_us = log.add(std::move(point_span), point_start, log.now());
  return out;
}

struct ShapeStats {
  std::size_t points = 0;
  double gen_us = 0.0;
  double build_us = 0.0;
  double replay_us = 0.0;
  double decode_us = 0.0;
  std::uint64_t records = 0;
};

/// Layer totals over every traced pass of a run.
struct LayerStats {
  std::size_t passes = 0;
  std::size_t points = 0;
  std::size_t size_calls = 0;
  double size_us = 0.0;
  std::size_t gen_calls = 0;
  std::size_t gen_distinct = 0;
  double gen_us = 0.0;
  std::uint64_t gen_records = 0;
  std::size_t build_calls = 0;
  double build_us = 0.0;
  double replay_us = 0.0;
  double decode_us = 0.0;
  std::uint64_t decode_records = 0;
  double rollup_us = 0.0;
  double point_us = 0.0;
  double wall_s = 0.0;
  std::map<std::string, ShapeStats> shapes;
  std::optional<SimCounts> counts;  ///< of the first pass
};

/// One traced pass over `specs` (a fresh plan memo per spec, as a fresh
/// Executor has), checked against the untraced rows in `references`.
/// With a disabled `log` it is the same pass with span recording off.
/// Returns the pass wall time.
double layer_pass(const std::vector<ex::SweepSpec>& specs,
                  const std::vector<ex::SweepResult>& references,
                  std::size_t threads, std::size_t pass, SpanLog& log,
                  LayerStats& stats, Report& report) {
  SimCounts counts;
  double pass_wall = 0.0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ex::SweepSpec& spec = specs[s];
    const std::vector<ex::SweepPoint> points = points_of(spec);
    std::vector<PointTrace> traces(points.size());
    PlanMemo memo;
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto worker = [&](std::size_t thread) {
      for (;;) {
        const std::size_t i = next++;
        if (i >= points.size()) {
          return;
        }
        try {
          traces[i] = trace_point(spec, points[i], memo, log,
                                  spec.name + "#" + std::to_string(points[i].index) +
                                      "@" + std::to_string(pass),
                                  thread);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) {
            error = std::current_exception();
          }
          next = points.size();
          return;
        }
      }
    };
    const auto start = Clock::now();
    {
      std::vector<std::jthread> pool;
      for (std::size_t t = 1; t < threads; ++t) {
        pool.emplace_back(worker, t);
      }
      worker(0);
    }
    const double wall = seconds_since(start);
    pass_wall += wall;
    if (error) {
      std::rethrow_exception(error);
    }

    const ex::SweepResult& ref = references[s];
    const std::size_t instr_col = ref.column("instructions");
    const std::size_t cycles_col = ref.column("cycles");
    const std::size_t energy_col = ref.column("total_energy_j");
    bool same = ref.rows.size() == traces.size();
    std::set<std::tuple<std::string, std::uint64_t, std::size_t>> distinct;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const PointTrace& t = traces[i];
      if (same) {
        const auto& row = ref.rows[i];
        same = row[instr_col] == t.instructions && row[cycles_col] == t.cycles &&
               row[energy_col] == t.total_energy;
      }
      counts += t.counts;
      stats.points += 1;
      stats.size_calls += t.sized ? 1 : 0;
      stats.size_us += t.size_us;
      stats.gen_calls += t.gen_keys.size();
      distinct.insert(t.gen_keys.begin(), t.gen_keys.end());
      stats.gen_us += t.gen_us;
      stats.gen_records += t.gen_records;
      stats.build_calls += 1;
      stats.build_us += t.build_us;
      stats.replay_us += t.replay_us;
      stats.decode_us += t.decode_us;
      stats.decode_records += t.replay_records;
      stats.rollup_us += t.rollup_us;
      stats.point_us += t.point_us;
      ShapeStats& shape = stats.shapes[t.shape];
      shape.points += 1;
      shape.gen_us += t.gen_us;
      shape.build_us += t.build_us;
      shape.replay_us += t.replay_us;
      shape.decode_us += t.decode_us;
      shape.records += t.replay_records;
    }
    stats.gen_distinct += distinct.size();
    report.check(same, spec.name + " traced instructions/cycles/total_energy_j "
                                   "equal the untraced rows");
  }
  if (!stats.counts) {
    stats.counts = counts;
  } else {
    report.check(*stats.counts == counts,
                 "simulated counts repeat exactly across traced passes");
  }
  stats.passes += 1;
  stats.wall_s += pass_wall;
  return pass_wall;
}

/// The per-shape split: generation, build and replay per point, plus the
/// cost of one sizing call.
void print_shape_table(const LayerStats& stats) {
  std::printf("per-shape split (traced, per point):\n");
  std::printf("  %-6s %7s %10s %10s %10s %10s %9s\n", "shape", "points",
              "gen_ms", "build_ms", "replay_ms", "decode_ms", "Mrec/s");
  for (const auto& [name, shape] : stats.shapes) {
    const double n = static_cast<double>(shape.points);
    std::printf("  %-6s %7zu %10.3f %10.3f %10.3f %10.3f %9.1f\n", name.c_str(),
                shape.points, shape.gen_us / n * 1e-3, shape.build_us / n * 1e-3,
                shape.replay_us / n * 1e-3, shape.decode_us / n * 1e-3,
                ratio(static_cast<double>(shape.records), shape.replay_us));
  }
  std::printf("  sizing: %zu calls, %.3f ms per call\n", stats.size_calls,
              ratio(stats.size_us, static_cast<double>(stats.size_calls)) * 1e-3);
}

// ---------------------------------------------------------------------
// Store reads, the Service and its socket client
// ---------------------------------------------------------------------

struct StoreStats {
  std::size_t opens = 0;
  double open_us = 0.0;
  std::size_t records = 0;
  std::size_t gets = 0;
  double get_us = 0.0;
  std::size_t crc_failures = 0;
};

/// Re-opens a closed store `opens` times (the open-scan), then reads
/// every point of `specs` back `rounds` times; the first round's payloads
/// must equal the batch rows.
void store_reads(const std::string& path, const std::vector<ex::SweepSpec>& specs,
                 const std::vector<ex::SweepResult>& references,
                 std::size_t opens, std::size_t rounds, SpanLog& log,
                 StoreStats& stats, Report& report) {
  std::unique_ptr<hvc::store::ResultStore> store;
  for (std::size_t i = 0; i < opens; ++i) {
    store.reset();
    const auto start = Clock::now();
    store = ex::open_result_store(path, false);
    stats.open_us += log.add({.name = "store.open", .request = "store"}, start,
                             Clock::now());
    ++stats.opens;
  }
  stats.records = store->records();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::vector<std::string> columns = ex::sweep_columns(specs[s].kind);
    const std::vector<ex::SweepPoint> points = points_of(specs[s]);
    bool same = points.size() == references[s].rows.size();
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const hvc::store::Key key = ex::result_key(specs[s], points[i], columns);
        std::optional<std::vector<std::uint8_t>> payload;
        const auto start = Clock::now();
        try {
          payload = store->get(key);
        } catch (const hvc::ConfigError&) {
          ++stats.crc_failures;
        }
        stats.get_us += log.add({.name = "store.get", .request = specs[s].name +
                                 "#" + std::to_string(points[i].index)},
                                start, Clock::now());
        ++stats.gets;
        if (round == 0 && same) {
          const auto& row = references[s].rows[i];
          same = payload.has_value() &&
                 ex::decode_row(payload->data(), payload->size()) ==
                     std::vector<std::string>(row.begin() + 1, row.end());
        }
      }
    }
    report.check(same, specs[s].name + " store payloads equal the batch rows");
  }
  report.check(stats.crc_failures == 0, "store reads pass their CRC checks");
  store->close();
}

/// A Service running on its own thread for the object's lifetime. A
/// service that fails to start is reported here; its clients then fail to
/// connect, which counts against the run.
class RunningService {
 public:
  explicit RunningService(ex::ServeOptions options)
      : service_(std::move(options)), thread_([this] {
          try {
            service_.run();
          } catch (const std::exception& error) {
            std::fprintf(stderr, "sweep_bench: service: %s\n", error.what());
          }
        }) {
    service_.wait_ready();
  }
  ~RunningService() {
    service_.request_stop();
    thread_.join();
  }
  RunningService(const RunningService&) = delete;
  RunningService& operator=(const RunningService&) = delete;

 private:
  ex::Service service_;
  std::thread thread_;
};

/// One query a client can send, with the rows it must stream back.
struct Slice {
  std::string request;
  std::string header;
  std::vector<std::string> lines;
};

[[nodiscard]] Slice make_slice(const ex::SweepSpec& spec, std::size_t id,
                               std::vector<std::string> lines) {
  hvc::Json request;
  request.set("spec", spec.to_json());
  request.set("id", hvc::Json(id));
  return {request.dump(), csv_line(ex::sweep_columns(spec.kind)),
          std::move(lines)};
}

template <typename Vec>
void random_subset(Vec& values, hvc::Rng& rng) {
  if (values.size() < 2) {
    return;
  }
  Vec kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if ((rng.next() & 1U) != 0) {
      kept.push_back(values[i]);
    }
  }
  if (kept.empty()) {
    kept.push_back(values[rng.next() % values.size()]);
  }
  values = std::move(kept);
}

/// Seeded random slices of the prefilled specs, taken from each spec in
/// turn: a non-empty subset of every axis. Slices whose points are not all in the store are redrawn,
/// so every query is answered warm.
[[nodiscard]] std::vector<Slice> make_slices(
    const std::vector<ex::SweepSpec>& specs,
    const std::vector<ex::SweepResult>& references, std::uint64_t seed,
    std::size_t count) {
  std::unordered_map<hvc::store::Key, const std::vector<std::string>*,
                     hvc::store::KeyHash>
      rows;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::vector<std::string> columns = ex::sweep_columns(specs[s].kind);
    const std::vector<ex::SweepPoint> points = points_of(specs[s]);
    for (std::size_t i = 0; i < points.size(); ++i) {
      rows[ex::result_key(specs[s], points[i], columns)] = &references[s].rows[i];
    }
  }
  hvc::Rng rng(hvc::Rng::mix64(seed, 0x51ce));
  std::vector<Slice> slices;
  for (std::size_t attempt = 0; slices.size() < count && attempt < 100 * count;
       ++attempt) {
    ex::SweepSpec spec = specs[slices.size() % specs.size()];
    random_subset(spec.scenarios, rng);
    random_subset(spec.designs, rng);
    random_subset(spec.l2_designs, rng);
    random_subset(spec.l2_size_kbs, rng);
    random_subset(spec.cores, rng);
    random_subset(spec.modes, rng);
    random_subset(spec.hp_vccs, rng);
    random_subset(spec.ule_vccs, rng);
    random_subset(spec.workloads, rng);
    random_subset(spec.workload_mixes, rng);
    random_subset(spec.scrub_intervals_s, rng);
    const std::vector<std::string> columns = ex::sweep_columns(spec.kind);
    std::vector<std::string> lines;
    bool warm = true;
    for (const ex::SweepPoint& point : points_of(spec)) {
      const auto it = rows.find(ex::result_key(spec, point, columns));
      if (it == rows.end()) {
        warm = false;
        break;
      }
      std::vector<std::string> cells = *it->second;
      cells[0] = hvc::format_number(static_cast<std::uint64_t>(point.index));
      lines.push_back(csv_line(cells));
    }
    if (warm) {
      slices.push_back(make_slice(spec, slices.size(), std::move(lines)));
    }
  }
  hvc::ensure(slices.size() == count, "could not draw warm query slices");
  return slices;
}

struct QueryStats {
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t rows = 0;
  std::uint64_t bytes = 0;
  // Single precision keeps the daemon's hundreds of thousands of samples
  // small next to the peak resident size it reports.
  std::vector<float> latency_ms;
  std::vector<float> begin_ms;   ///< traced queries only
  std::vector<float> stream_ms;  ///< traced queries only

  void merge(const QueryStats& o) {
    queries += o.queries;
    failed += o.failed;
    rows += o.rows;
    bytes += o.bytes;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    begin_ms.insert(begin_ms.end(), o.begin_ms.begin(), o.begin_ms.end());
    stream_ms.insert(stream_ms.end(), o.stream_ms.begin(), o.stream_ms.end());
  }
};

/// Sends one query and checks every event against the slice: header,
/// each row in order, and an end event reporting zero cold points.
/// Latency runs from the request being sent to the end event. A query
/// that throws counts as failed.
bool run_query(hvc::UnixStream& stream, const Slice& slice, QueryStats& stats,
               SpanLog* log, const std::string& request_id,
               std::size_t thread) {
  ++stats.queries;
  const auto start = Clock::now();
  auto begun = start;
  bool ok = true;
  std::size_t rows = 0;
  std::uint64_t bytes = 0;
  try {
    ok = stream.send_line(slice.request);
    bool ended = false;
    std::string line;
    while (ok && !ended) {
      if (stream.read_line(line) != hvc::UnixStream::ReadStatus::kLine) {
        ok = false;
        break;
      }
      bytes += line.size() + 1;
      const hvc::Json event = hvc::Json::parse(line);
      const std::string& type = event.at("event").as_string();
      if (type == "begin") {
        begun = Clock::now();
        ok = event.at("csv_header").as_string() == slice.header;
      } else if (type == "row") {
        ok = static_cast<std::size_t>(event.at("seq").as_number()) == rows &&
             rows < slice.lines.size() &&
             event.at("csv").as_string() == slice.lines[rows];
        ++rows;
      } else if (type == "end") {
        ended = true;
        ok = rows == slice.lines.size() && event.at("cold").as_number() == 0.0;
      } else {
        ok = false;
      }
    }
  } catch (const std::exception& error) {
    std::printf("query %s: %s\n", request_id.c_str(), error.what());
    ok = false;
  }
  const auto end = Clock::now();
  if (!ok) {
    ++stats.failed;
    return false;
  }
  stats.rows += rows;
  stats.bytes += bytes;
  stats.latency_ms.push_back(static_cast<float>(seconds_between(start, end) * 1e3));
  if (log != nullptr) {
    stats.begin_ms.push_back(static_cast<float>(seconds_between(start, begun) * 1e3));
    stats.stream_ms.push_back(static_cast<float>(seconds_between(begun, end) * 1e3));
    const std::uint64_t id = log->reserve_id();
    log->add({.parent = id, .name = "service.begin", .request = request_id,
              .thread = thread},
             start, begun);
    log->add({.parent = id, .name = "service.stream", .request = request_id,
              .thread = thread},
             begun, end);
    log->add({.id = id, .name = "service.query", .request = request_id,
              .thread = thread},
             start, end);
  }
  return true;
}

/// A closed loop of `clients` connections, each sending its next seeded
/// slice only after the previous query completed, until `seconds` pass.
[[nodiscard]] QueryStats query_loop(const std::string& socket,
                                    const std::vector<Slice>& slices,
                                    std::uint64_t seed, std::size_t clients,
                                    double seconds, SpanLog* log) {
  std::vector<QueryStats> per_client(clients);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        QueryStats& stats = per_client[c];
        // Address space only: pages become resident as samples arrive,
        // so the resident size grows with the query count, not in steps.
        stats.latency_ms.reserve(std::size_t{1} << 20);
        try {
          hvc::UnixStream stream = hvc::UnixStream::connect(socket);
          hvc::Rng rng(hvc::Rng::mix64(seed, c + 1));
          for (std::size_t n = 0; Clock::now() < deadline; ++n) {
            const Slice& slice = slices[rng.next() % slices.size()];
            if (!run_query(stream, slice, stats, log,
                           "query-" + std::to_string(c) + "." + std::to_string(n),
                           c)) {
              return;  // the stream is out of step after a failure
            }
          }
        } catch (const std::exception& error) {
          // A client that cannot connect counts as one failed query.
          std::printf("client %zu: %s\n", c, error.what());
          ++stats.queries;
          ++stats.failed;
        }
      });
    }
  }
  QueryStats total;
  std::size_t samples = 0;
  for (const QueryStats& stats : per_client) {
    samples += stats.latency_ms.size();
  }
  total.latency_ms.reserve(samples);
  for (const QueryStats& stats : per_client) {
    total.merge(stats);
  }
  return total;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Per-layer metrics of a traced run, in BENCHMARK.json order.
/// `parallel_efficiency` is the Executor's: process CPU time over
/// threads x wall of its untraced sweeps (the coordinating thread's CPU
/// counts too, so it can pass 1 slightly). `overhead_pct` compares the
/// same driver with span recording on and off.
void emit_layer_metrics(Report& report, const LayerStats& layers,
                        const SinkStats& sinks, const StoreStats& store,
                        const QueryStats& queries, double parallel_efficiency,
                        double traced_points_per_s, double overhead_pct) {
  const auto d = [](auto value) { return static_cast<double>(value); };
  const double passes = d(std::max<std::size_t>(layers.passes, 1));
  const auto per_pass_ms = [&](double us) { return us / passes * 1e-3; };
  report.metric("yield.size.calls", d(layers.size_calls) / passes, "count");
  report.metric("yield.size.ms", per_pass_ms(layers.size_us), "ms");
  report.metric("workloads.generate.ms", per_pass_ms(layers.gen_us), "ms");
  report.metric("workloads.generate.records", d(layers.gen_records) / passes,
                "count");
  report.metric("workloads.generate.mrec_per_s",
                ratio(d(layers.gen_records), layers.gen_us), "Mrec/s");
  report.metric("workloads.generate.repeat_ratio",
                ratio(d(layers.gen_calls), d(layers.gen_distinct)), "ratio");
  report.metric("sim.build.calls", d(layers.build_calls) / passes, "count");
  report.metric("sim.build.ms", per_pass_ms(layers.build_us), "ms");
  report.metric("sim.rollup.ms", per_pass_ms(layers.rollup_us), "ms");
  report.metric("trace.decode.ms", per_pass_ms(layers.decode_us), "ms");
  report.metric("trace.decode.records", d(layers.decode_records) / passes,
                "count");
  report.metric("cpu.replay.ms", per_pass_ms(layers.replay_us - layers.decode_us),
                "ms");
  for (const char* shape : {"hp_a", "hp_b", "ule_a", "ule_b", "mc1", "mc2", "mc4"}) {
    const auto it = layers.shapes.find(shape);
    report.metric(std::string("cpu.replay.mrec_per_s.") + shape,
                  it == layers.shapes.end()
                      ? 0.0
                      : ratio(d(it->second.records), it->second.replay_us),
                  "Mrec/s");
  }
  report.metric("explore.parallel_efficiency", parallel_efficiency, "ratio");
  report.metric("explore.row_gap_p99_ms", quantile(sinks.row_gaps_ms, 0.99), "ms");
  report.metric("explore.sink.ms", sinks.sink_us * 1e-3, "ms");
  report.metric("explore.sink.bytes", d(sinks.sink_bytes), "B");
  report.metric("store.put.calls", d(sinks.puts), "count");
  report.metric("store.put.us_per_op", ratio(sinks.put_us, d(sinks.puts)), "us");
  report.metric("store.get.calls", d(store.gets), "count");
  report.metric("store.get.us_per_op", ratio(store.get_us, d(store.gets)), "us");
  report.metric("store.crc_failures", d(store.crc_failures), "count");
  report.metric("store.open.ms", ratio(store.open_us, d(store.opens)) * 1e-3, "ms");
  report.metric("store.records", d(store.records), "count");
  report.metric("service.begin_ms", median(queries.begin_ms), "ms");
  report.metric("service.stream_ms", median(queries.stream_ms), "ms");
  report.metric("service.bytes_per_query",
                ratio(d(queries.bytes), d(queries.queries - queries.failed)), "B");
  const SimCounts counts = layers.counts.value_or(SimCounts{});
  report.metric("sim.instructions", d(counts.instructions), "count");
  report.metric("cache.l1.accesses", d(counts.l1_accesses), "count");
  report.metric("cache.l1.misses", d(counts.l1_misses), "count");
  report.metric("cache.l2.accesses", d(counts.l2_accesses), "count");
  report.metric("edc.corrections", d(counts.edc_corrections), "count");
  report.metric("edc.detected", d(counts.edc_detected), "count");
  report.metric("arbiter.contention_cycles", d(counts.contention_cycles), "count");
  report.metric("trace.points_per_s", traced_points_per_s, "1/s");
  report.metric("trace.overhead_pct", overhead_pct, "%");
  const double attributed = layers.size_us + layers.gen_us + layers.build_us +
                            layers.replay_us + layers.rollup_us;
  report.metric("trace.unattributed_pct",
                ratio(layers.point_us - attributed, layers.point_us) * 100.0, "%");
  std::printf("traced point time %.1f ms: sizing %.1f, generation %.1f, build "
              "%.1f, decode %.1f, replay self %.1f, roll-up %.1f, "
              "unattributed %.1f\n",
              layers.point_us * 1e-3, layers.size_us * 1e-3, layers.gen_us * 1e-3,
              layers.build_us * 1e-3, layers.decode_us * 1e-3,
              (layers.replay_us - layers.decode_us) * 1e-3,
              layers.rollup_us * 1e-3, (layers.point_us - attributed) * 1e-3);
}

/// `peak_mb` is read before this call, as computing the percentiles
/// copies the latency samples.
void emit_end_to_end(Report& report, double points_per_s, double cpu_ms_per_point,
                     double queries_per_s, const std::vector<float>& latency_ms,
                     const std::vector<double>& setup_s, double peak_mb) {
  std::printf("samples: %zu queries (latency p50/p99), %zu set-ups\n",
              latency_ms.size(), setup_s.size());
  report.metric("points_per_s", points_per_s, "1/s");
  report.metric("cpu_ms_per_point", cpu_ms_per_point, "ms");
  report.metric("queries_per_s", queries_per_s, "1/s");
  report.metric("query_p50_ms", quantile(latency_ms, 0.5), "ms");
  report.metric("query_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_mb, "MB");
}

// ---------------------------------------------------------------------
// Workload runs
// ---------------------------------------------------------------------

struct Context {
  const WorkloadDef& def;
  const Options& options;
  std::size_t nproc = 1;
  /// Executor threads: half the CPUs, which leaves headroom on a shared
  /// machine (at nproc threads run-to-run spread roughly doubles there).
  std::size_t threads = 1;
  std::string tmp;  ///< per-process prefix for temporary files
};

/// Set-up samples taken after each sweep. Set-up alone takes tens to
/// hundreds of microseconds, so many samples, spread over the whole
/// measuring window like the sweeps are, steady its median.
constexpr int kSetupBatch = 40;

/// Cold workloads: one query is one whole sweep. Untraced, the sweep is
/// repeated for --seconds; traced, untraced sweeps are followed by layer
/// passes with span recording off and on, then an engine pass commits
/// the rows to a store, reads them back and serves them through the
/// Service.
void run_cold(const Context& ctx, Report& report) {
  const Options& o = ctx.options;
  const std::string& file = ctx.def.spec_files.front();
  const std::string store_path = ctx.def.store ? ctx.tmp + ".hvcs" : "";
  const std::size_t threads = ctx.threads;
  const std::size_t min_reps = o.tiny ? 1 : (o.trace ? 2 : 3);

  // Warm-up: the first sweep of a process pays one-time lazy set-up.
  const ColdRun reference = cold_sweep(file, o, threads, store_path);
  const std::string reference_csv = reference.result.to_csv();
  const std::size_t points = reference.result.points();
  report.attempt(points);
  const ex::SweepSpec spec = load_spec(file, o);

  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> traced_s;
  std::vector<double> quiet_s;
  std::vector<double> rep_cpu_s;
  LayerStats layers;
  LayerStats quiet_layers;
  SpanLog log;
  SpanLog quiet(false);
  const auto start = Clock::now();
  while (run_s.size() < min_reps || seconds_since(start) < o.seconds) {
    ColdRun run;
    try {
      run = cold_sweep(file, o, threads, store_path);
    } catch (const std::exception& error) {
      report.fail(points, error.what());
      break;
    }
    setup_s.push_back(run.setup_s);
    run_s.push_back(run.run_s);
    rep_cpu_s.push_back(run.cpu_s);
    report.attempt(run.result.points());
    check_csv(report, run.result.to_csv(), reference_csv, "repetition CSV");
    for (int k = 0; k < kSetupBatch; ++k) {
      setup_s.push_back(cold_sweep(file, o, threads, store_path, false).setup_s);
    }
    if (o.trace) {
      // Spans off and on in alternating order, so drift hits both alike.
      const std::size_t pass = traced_s.size();
      for (const bool spans : {pass % 2 == 0, pass % 2 != 0}) {
        (spans ? traced_s : quiet_s)
            .push_back(layer_pass({spec}, {reference.result}, threads, pass,
                                  spans ? log : quiet,
                                  spans ? layers : quiet_layers, report));
      }
    }
  }
  std::printf("setup_us: p10 %.1f, median %.1f, p90 %.1f over %zu samples\n",
              quantile(setup_s, 0.1) * 1e6, median(setup_s) * 1e6,
              quantile(setup_s, 0.9) * 1e6, setup_s.size());

  if (!o.trace) {
    // Throughput and CPU cost come from the fastest repetition: other
    // tenants of a shared machine only ever add time, and on one the
    // fastest sweep moved about a third as much between runs as the
    // median sweep did. The latency percentiles keep every sweep.
    const double best_s = *std::min_element(run_s.begin(), run_s.end());
    const double best_cpu_s = *std::min_element(rep_cpu_s.begin(), rep_cpu_s.end());
    std::vector<float> latency_ms;
    std::printf("sweep_ms:");
    for (const double s : run_s) {
      latency_ms.push_back(static_cast<float>(s * 1e3));
      std::printf(" %.1f", s * 1e3);
    }
    std::printf("\n");
    emit_end_to_end(report, ratio(static_cast<double>(points), best_s),
                    ratio(best_cpu_s * 1e3, static_cast<double>(points)),
                    ratio(1.0, best_s), latency_ms, setup_s, peak_rss_mb());
  } else {
    // Engine pass: cold into a fresh store with timed sinks and commits.
    const std::string path = ctx.tmp + "-engine.hvcs";
    std::filesystem::remove(path);
    SinkStats sinks;
    {
      auto store = ex::open_result_store(path, false);
      ex::Executor executor(threads);
      const ex::SweepResult result =
          run_sweep_into(spec, executor, store.get(), &log, &sinks);
      store->close();
      check_csv(report, result.to_csv(), reference_csv, "engine pass CSV");
    }
    StoreStats store_stats;
    store_reads(path, {spec}, {reference.result}, 5, 10, log, store_stats, report);
    QueryStats queries;
    {
      RunningService service(ex::ServeOptions{
          .socket_path = ctx.tmp + ".sock", .store_path = path, .threads = threads});
      hvc::UnixStream stream = hvc::UnixStream::connect(ctx.tmp + ".sock");
      std::vector<std::string> lines;
      for (const auto& row : reference.result.rows) {
        lines.push_back(csv_line(row));
      }
      const Slice slice = make_slice(spec, 0, std::move(lines));
      for (int q = 0; q < 3; ++q) {
        run_query(stream, slice, queries, &log, "query-" + std::to_string(q), 0);
      }
    }
    report.check(queries.failed == 0, "streamed rows equal the batch rows");
    std::filesystem::remove(path);

    // Fastest passes, for the reason the end-to-end figures use them.
    const double executor_s = *std::min_element(run_s.begin(), run_s.end());
    const double quiet_best_s = *std::min_element(quiet_s.begin(), quiet_s.end());
    const double traced_best_s = *std::min_element(traced_s.begin(), traced_s.end());
    std::printf("fastest sweep: Executor %.1f ms, layer pass %.1f ms with spans "
                "off, %.1f ms with spans on\n",
                executor_s * 1e3, quiet_best_s * 1e3, traced_best_s * 1e3);
    const double run_total_s = std::accumulate(run_s.begin(), run_s.end(), 0.0);
    const double cpu_total_s = std::accumulate(rep_cpu_s.begin(), rep_cpu_s.end(), 0.0);
    emit_layer_metrics(report, layers, sinks, store_stats, queries,
                       ratio(cpu_total_s, static_cast<double>(threads) * run_total_s),
                       ratio(static_cast<double>(points), traced_best_s),
                       (ratio(traced_best_s, quiet_best_s) - 1.0) * 100.0);
    print_shape_table(layers);
    log.write(o.tmp_dir + "/spans-" + ctx.def.name + "-" +
              std::to_string(o.seed) + ".jsonl");
  }

  one_thread_check(report, spec, reference_csv, nullptr, o);
  paper_check(report, threads);
}

/// daemon_warm: prefill a store with the pinned-seed specs, then a
/// closed loop of socket clients sends seeded slices of them to an
/// in-process Service; every point is answered from the store.
void run_daemon(const Context& ctx, Report& report) {
  const Options& o = ctx.options;
  const std::size_t threads = ctx.threads;
  const std::size_t clients = std::max<std::size_t>(1, ctx.nproc - threads);
  const std::string path = ctx.tmp + ".hvcs";
  const std::string socket = ctx.tmp + ".sock";
  std::filesystem::remove(path);

  std::vector<ex::SweepSpec> specs;
  for (const std::string& file : ctx.def.spec_files) {
    specs.push_back(load_spec(file, o));
  }
  SpanLog log;
  SinkStats sinks;
  std::vector<ex::SweepResult> references;
  const double prefill_cpu0 = cpu_seconds();
  const auto prefill_start = Clock::now();
  {
    auto store = ex::open_result_store(path, false);
    ex::Executor executor(threads);
    for (const ex::SweepSpec& spec : specs) {
      references.push_back(run_sweep_into(spec, executor, store.get(),
                                          o.trace ? &log : nullptr,
                                          o.trace ? &sinks : nullptr));
      report.attempt(references.back().points());
    }
    store->close();
  }
  const double prefill_efficiency =
      ratio(cpu_seconds() - prefill_cpu0,
            static_cast<double>(threads) * seconds_since(prefill_start));
  // Slice sizes are heavy-tailed; enough slices that the mix, and so the
  // rows per query, barely changes from seed to seed.
  const std::vector<Slice> slices = make_slices(specs, references, o.seed, 2048);

  const ex::ServeOptions serve{.socket_path = socket, .store_path = path,
                               .threads = threads};
  if (!o.trace) {
    // The closed loop runs in windows; between windows the Service is
    // restarted a few times for set-up samples, which so spread over the
    // whole run. Rates and CPU cost come from the fastest window, as the
    // cold workloads' come from their fastest sweep.
    constexpr int kWindows = 10;
    constexpr int kStartsPerWindow = 8;
    std::vector<double> setup_s;
    std::vector<double> rows_per_s;
    std::vector<double> queries_per_s;
    std::vector<double> cpu_ms_per_row;
    QueryStats queries;
    queries.latency_ms.reserve(std::size_t{1} << 23);  // address space only
    // peak_rss_mb covers the serving phase only, not the prefill.
    if (!reset_peak_rss()) {
      std::printf("peak_rss_mb: high-water mark not resettable, includes the "
                  "prefill\n");
    }
    std::unique_ptr<RunningService> service;
    for (int w = 0; w < kWindows; ++w) {
      for (int k = 0; k < kStartsPerWindow; ++k) {
        service.reset();
        const auto t0 = Clock::now();
        service = std::make_unique<RunningService>(serve);
        setup_s.push_back(seconds_since(t0));
      }
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      const QueryStats part =
          query_loop(socket, slices, hvc::Rng::mix64(o.seed, w), clients,
                     o.seconds / kWindows, nullptr);
      const double wall = seconds_since(t0);
      const auto rows = static_cast<double>(part.rows);
      rows_per_s.push_back(ratio(rows, wall));
      cpu_ms_per_row.push_back(ratio((cpu_seconds() - cpu0) * 1e3, rows));
      queries_per_s.push_back(
          ratio(static_cast<double>(part.queries - part.failed), wall));
      queries.merge(part);
    }
    service.reset();
    const double peak_mb = peak_rss_mb();
    report.attempt(queries.queries - queries.failed);
    if (queries.failed != 0) {
      report.fail(queries.failed, "queries failed or streamed wrong rows");
    }
    std::printf("closed loop: %zu clients, %zu executor threads, %zu queries, "
                "%zu rows in %d windows\n",
                clients, threads, queries.queries, queries.rows, kWindows);
    std::printf("setup_us: p10 %.1f, median %.1f, p90 %.1f over %zu samples\n",
                quantile(setup_s, 0.1) * 1e6, median(setup_s) * 1e6,
                quantile(setup_s, 0.9) * 1e6, setup_s.size());
    emit_end_to_end(report, *std::max_element(rows_per_s.begin(), rows_per_s.end()),
                    *std::min_element(cpu_ms_per_row.begin(), cpu_ms_per_row.end()),
                    *std::max_element(queries_per_s.begin(), queries_per_s.end()),
                    queries.latency_ms, setup_s, peak_mb);
  } else {
    LayerStats layers;
    layer_pass(specs, references, threads, 0, log, layers, report);
    StoreStats store_stats;
    store_reads(path, specs, references, 5, 10, log, store_stats, report);
    QueryStats untraced;
    QueryStats traced;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    {
      RunningService service(serve);
      // Alternating halves, so load drift hits both sides alike.
      for (int half = 0; half < 4; ++half) {
        const bool with_spans = half % 2 == 1;
        const auto t0 = Clock::now();
        const QueryStats part = query_loop(socket, slices, o.seed + half, clients,
                                           o.seconds / 4, with_spans ? &log : nullptr);
        (with_spans ? traced_s : untraced_s) += seconds_since(t0);
        (with_spans ? traced : untraced).merge(part);
      }
    }
    for (const QueryStats* q : {&untraced, &traced}) {
      report.attempt(q->queries - q->failed);
      if (q->failed != 0) {
        report.fail(q->failed, "queries failed or streamed wrong rows");
      }
    }
    const double untraced_rate = ratio(static_cast<double>(untraced.rows), untraced_s);
    const double traced_rate = ratio(static_cast<double>(traced.rows), traced_s);
    emit_layer_metrics(report, layers, sinks, store_stats, traced,
                       prefill_efficiency, traced_rate,
                       (ratio(untraced_rate, traced_rate) - 1.0) * 100.0);
    print_shape_table(layers);
    log.write(o.tmp_dir + "/spans-" + ctx.def.name + "-" +
              std::to_string(o.seed) + ".jsonl");
  }

  {
    auto store = ex::open_result_store(path, false);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      one_thread_check(report, specs[s], references[s].to_csv(), store.get(), o);
    }
    store->close();
  }
  std::filesystem::remove(path);
  paper_check(report, threads);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_bench: %s\n", error.what());
    return 2;
  }
  const std::string build_type = HVC_BENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  if (build_type != "Release" || assertions) {
    std::fprintf(stderr, "sweep_bench: refusing to report from a %s build "
                         "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 build_type.c_str());
    return 2;
  }
  const auto& defs = workload_defs();
  const auto def = std::find_if(defs.begin(), defs.end(), [&](const WorkloadDef& d) {
    return options.workload == d.name;
  });
  if (def == defs.end()) {
    std::fprintf(stderr, "sweep_bench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }

  double load_start[3] = {0, 0, 0};
  getloadavg(load_start, 3);
  const auto nproc =
      static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  Context ctx{*def, options, nproc, std::max<std::size_t>(1, nproc / 2), ""};
  Report report;
  try {
    std::filesystem::create_directories(options.tmp_dir);
    ctx.tmp = options.tmp_dir + "/" + def->name + "-" + std::to_string(getpid());
    if (def->daemon) {
      run_daemon(ctx, report);
    } else {
      run_cold(ctx, report);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep_bench: %s\n", error.what());
    return 1;
  }
  double load_end[3] = {0, 0, 0};
  getloadavg(load_end, 3);
  std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %zu, \"threads\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\", \"loadavg_start\": %.2f, "
              "\"loadavg_end\": %.2f}\n",
              def->name, static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, ctx.nproc, ctx.threads, HVC_BENCH_COMPILER,
              build_type.c_str(), options.commit.c_str(), load_start[0],
              load_end[0]);
  report.print_result();
  return 0;
}
