// hvc_trace — streaming trace capture/replay driver.
//
// Records a workload kernel's memory trace to a compact .hvct file once,
// then replays it any number of times — through this tool or as a
// "trace:<path>" entry on hvc_explore's workload axes — without
// re-running the kernel. Replay streams the file through a bounded
// window, so traces of any length run in O(1) memory.
//
// Usage:
//   hvc_trace record <workload> --out FILE [--seed S] [--scale N]
//   hvc_trace info <file>
//   hvc_trace fsck <file> [--repair]
//   hvc_trace replay <file> [--scenario A|B] [--design baseline|proposed]
//                           [--mode hp|ule] [--cores N] [--system-seed S]
//                           [--profile]
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "hvc/common/io.hpp"
#include "hvc/sim/report.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"

namespace {

void print_usage(std::FILE* stream) {
  std::fprintf(
      stream,
      "usage: hvc_trace <command> ...\n"
      "\n"
      "commands:\n"
      "  record <workload> --out FILE [--seed S] [--scale N]\n"
      "      run a registry kernel and stream its trace to a .hvct file\n"
      "  info <file>\n"
      "      print a .hvct file's header/footer summary (no full decode)\n"
      "  fsck <file> [--repair]\n"
      "      fully decode a .hvct file and classify it clean /\n"
      "      recoverable / corrupt (exit 0/1/2); with --repair, truncate\n"
      "      a recoverable file to its last decodable record and rewrite\n"
      "      a valid footer\n"
      "  replay <file> [--scenario A|B] [--design baseline|proposed]\n"
      "                [--mode hp|ule] [--cores N] [--system-seed S]\n"
      "                [--profile]\n"
      "      replay a recorded trace through a simulated chip and print\n"
      "      the timing/energy summary (cores > 1 replays the same trace\n"
      "      on every core through the shared-level arbiter; --profile\n"
      "      additionally prints the replay's wall-time split between\n"
      "      decode, access and retire phases, at any core count)\n"
      "\n"
      "Replaying a recorded trace is bit-identical to the in-memory run\n"
      "that produced it: same energy categories, timing and level stats.\n");
}

[[nodiscard]] const char* value_of(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw std::runtime_error(std::string("missing value for ") + argv[i]);
  }
  return argv[++i];
}

[[nodiscard]] std::uint64_t parse_u64_arg(const char* flag,
                                          const char* text) {
  char* end = nullptr;
  errno = 0;
  // strtoull silently wraps negative inputs to huge values; reject the
  // sign up front (same hardening as hvc_explore's --seed parser).
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || *text == '-') {
    throw std::runtime_error(std::string(flag) +
                             " needs a non-negative integer");
  }
  return value;
}

int cmd_record(int argc, char** argv) {
  std::string workload;
  std::string out_path;
  std::uint64_t seed = 1;
  std::size_t scale = 1;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--out") == 0) {
      out_path = value_of(argc, argv, i);
    } else if (std::strcmp(arg, "--seed") == 0) {
      seed = parse_u64_arg("--seed", value_of(argc, argv, i));
    } else if (std::strcmp(arg, "--scale") == 0) {
      scale = static_cast<std::size_t>(
          parse_u64_arg("--scale", value_of(argc, argv, i)));
      if (scale == 0) {
        throw std::runtime_error("--scale must be >= 1");
      }
    } else if (workload.empty() && arg[0] != '-') {
      workload = arg;
    } else {
      throw std::runtime_error(std::string("unknown record argument: ") +
                               arg);
    }
  }
  if (workload.empty() || out_path.empty()) {
    throw std::runtime_error("record needs a <workload> and --out FILE");
  }

  const hvc::wl::WorkloadInfo& info = hvc::wl::find_workload(workload);
  const hvc::wl::WorkloadResult result = info.run(seed, scale);
  if (!result.self_check) {
    throw std::runtime_error("workload self-check failed: " + workload);
  }
  const hvc::trace::TraceStats stats =
      hvc::trace::write_trace(out_path, result.tracer);
  const hvc::trace::TraceInfo written = hvc::trace::read_trace_info(out_path);
  std::printf("recorded %s (seed %llu, scale %zu) -> %s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), scale, out_path.c_str());
  std::printf("  records       %llu\n",
              static_cast<unsigned long long>(written.records));
  std::printf("  instructions  %llu\n",
              static_cast<unsigned long long>(stats.instructions));
  std::printf("  file bytes    %llu (%.2f bytes/record)\n",
              static_cast<unsigned long long>(written.file_bytes),
              written.records == 0
                  ? 0.0
                  : static_cast<double>(written.file_bytes) /
                        static_cast<double>(written.records));
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) {
    throw std::runtime_error("info needs a <file>");
  }
  const std::string path = argv[2];
  const hvc::trace::TraceInfo info = hvc::trace::read_trace_info(path);
  std::printf("%s: .hvct version %u\n", path.c_str(), info.version);
  std::printf("  records            %llu\n",
              static_cast<unsigned long long>(info.records));
  std::printf("  payload bytes      %llu (%.2f bytes/record)\n",
              static_cast<unsigned long long>(info.payload_bytes),
              info.records == 0
                  ? 0.0
                  : static_cast<double>(info.payload_bytes) /
                        static_cast<double>(info.records));
  std::printf("  instructions       %llu\n",
              static_cast<unsigned long long>(info.stats.instructions));
  std::printf("  loads / stores     %llu / %llu\n",
              static_cast<unsigned long long>(info.stats.loads),
              static_cast<unsigned long long>(info.stats.stores));
  std::printf("  branches (taken)   %llu (%llu)\n",
              static_cast<unsigned long long>(info.stats.branches),
              static_cast<unsigned long long>(info.stats.taken_branches));
  std::printf("  data footprint     %llu bytes\n",
              static_cast<unsigned long long>(
                  info.stats.data_footprint_bytes));
  std::printf("  code footprint     %llu bytes\n",
              static_cast<unsigned long long>(
                  info.stats.code_footprint_bytes));
  return 0;
}

int cmd_fsck(int argc, char** argv) {
  std::string path;
  bool repair = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--repair") == 0) {
      repair = true;
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      throw std::runtime_error(std::string("unknown fsck argument: ") + arg);
    }
  }
  if (path.empty()) {
    throw std::runtime_error("fsck needs a <file>");
  }

  const hvc::trace::TraceFsckReport report =
      repair ? hvc::trace::repair_trace(path) : hvc::trace::fsck_trace(path);
  std::printf("%s: %s\n", path.c_str(),
              hvc::trace::to_string(report.status));
  std::printf("  %s\n", report.detail.c_str());
  std::printf("  records        %llu\n",
              static_cast<unsigned long long>(report.records));
  std::printf("  payload bytes  %llu\n",
              static_cast<unsigned long long>(report.payload_bytes));
  std::printf("  file bytes     %llu\n",
              static_cast<unsigned long long>(report.file_bytes));
  switch (report.status) {
    case hvc::trace::TraceFsckStatus::kClean:
      return 0;
    case hvc::trace::TraceFsckStatus::kRecoverable:
      return 1;
    case hvc::trace::TraceFsckStatus::kCorrupt:
      return 2;
  }
  return 2;
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a,
                                     Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wall-time split of one replay (--profile). Every core's source reports
/// its pulls here: time inside a pull is decode (varint decode into the
/// block), time between two consecutive pulls is the replay loop stepping
/// records through the caches (access), and the rest of the run — reset,
/// begin_run, counter clears and the finish_run roll-up — is retire.
struct PhaseTimes {
  double decode_s = 0.0;
  double access_s = 0.0;
  double total_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;
  bool pulled = false;
  Clock::time_point last_pull_end;

  [[nodiscard]] double retire_s() const noexcept {
    return total_s - decode_s - access_s;
  }
};

/// Forwards every call to `inner` unchanged and times its pulls into a
/// PhaseTimes shared by all cores' sources, so the replay result is
/// bit-identical to the untimed run at any core count.
class TimedSource final : public hvc::trace::TraceSource {
 public:
  TimedSource(std::unique_ptr<hvc::trace::TraceSource> inner,
              PhaseTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  bool next(hvc::trace::Record& out) override {
    return next_batch(&out, 1) == 1;
  }
  std::size_t next_batch(hvc::trace::Record* out, std::size_t max) override {
    const Clock::time_point start = Clock::now();
    if (times_.pulled) {
      times_.access_s += seconds_between(times_.last_pull_end, start);
    }
    const std::size_t got = inner_->next_batch(out, max);
    const Clock::time_point end = Clock::now();
    times_.decode_s += seconds_between(start, end);
    times_.last_pull_end = end;
    times_.pulled = true;
    times_.records += got;
    times_.blocks += got > 0 ? 1 : 0;
    return got;
  }
  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return inner_->size_hint();
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<hvc::trace::TraceSource> inner_;
  PhaseTimes& times_;
};

int cmd_replay(int argc, char** argv) {
  std::string path;
  hvc::sim::SystemConfig config;
  bool profile = false;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      const std::string value = value_of(argc, argv, i);
      if (value == "A") {
        config.design.scenario = hvc::yield::Scenario::kA;
      } else if (value == "B") {
        config.design.scenario = hvc::yield::Scenario::kB;
      } else {
        throw std::runtime_error("--scenario must be A or B");
      }
    } else if (std::strcmp(arg, "--design") == 0) {
      const std::string value = value_of(argc, argv, i);
      if (value != "baseline" && value != "proposed") {
        throw std::runtime_error("--design must be baseline or proposed");
      }
      config.design.proposed = value == "proposed";
    } else if (std::strcmp(arg, "--mode") == 0) {
      const std::string value = value_of(argc, argv, i);
      if (value != "hp" && value != "ule") {
        throw std::runtime_error("--mode must be hp or ule");
      }
      config.mode = value == "hp" ? hvc::power::Mode::kHp
                                  : hvc::power::Mode::kUle;
    } else if (std::strcmp(arg, "--cores") == 0) {
      config.num_cores = static_cast<std::size_t>(
          parse_u64_arg("--cores", value_of(argc, argv, i)));
      if (config.num_cores == 0) {
        throw std::runtime_error("--cores must be >= 1");
      }
    } else if (std::strcmp(arg, "--system-seed") == 0) {
      config.seed =
          parse_u64_arg("--system-seed", value_of(argc, argv, i));
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      throw std::runtime_error(std::string("unknown replay argument: ") +
                               arg);
    }
  }
  if (path.empty()) {
    throw std::runtime_error("replay needs a <file>");
  }

  hvc::sim::System system(
      config, hvc::sim::cell_plan_for(config.design.scenario));
  // One streaming reader per core, each with its own bounded window.
  PhaseTimes times;
  std::vector<std::unique_ptr<hvc::trace::TraceSource>> owned;
  std::vector<hvc::trace::TraceSource*> sources;
  for (std::size_t c = 0; c < config.num_cores; ++c) {
    std::unique_ptr<hvc::trace::TraceSource> source =
        std::make_unique<hvc::trace::TraceFileSource>(path);
    if (profile) {
      source = std::make_unique<TimedSource>(std::move(source), times);
    }
    sources.push_back(source.get());
    owned.push_back(std::move(source));
  }
  // A one-core mix is bit-identical to run_trace (test_multicore pins
  // it), so every core count takes the interleaver.
  const Clock::time_point start = Clock::now();
  const hvc::cpu::RunResult result = system.run_mix_sources(sources).aggregate;
  times.total_s = seconds_between(start, Clock::now());

  std::printf("replayed %s on %zu core(s), %s/%s, %s mode\n", path.c_str(),
              config.num_cores,
              config.design.scenario == hvc::yield::Scenario::kA ? "A" : "B",
              config.design.proposed ? "proposed" : "baseline",
              config.mode == hvc::power::Mode::kHp ? "hp" : "ule");
  std::printf("  instructions  %llu\n",
              static_cast<unsigned long long>(result.instructions));
  std::printf("  cycles        %llu (CPI %s)\n",
              static_cast<unsigned long long>(result.cycles),
              hvc::format_number(result.cpi()).c_str());
  std::printf("  seconds       %s\n",
              hvc::format_number(result.seconds).c_str());
  std::printf("  energy        %s J (EPI %s J)\n",
              hvc::format_number(result.total_energy()).c_str(),
              hvc::format_number(result.epi()).c_str());
  for (const auto& [category, joules] : result.energy.items()) {
    std::printf("    %-18s %s J\n", category.c_str(),
                hvc::format_number(joules).c_str());
  }
  std::printf("  levels\n");
  for (const auto& level : result.levels) {
    std::printf("    %-8s accesses %llu  hit-rate %s\n", level.name.c_str(),
                static_cast<unsigned long long>(level.accesses),
                hvc::format_number(level.hit_rate()).c_str());
  }
  if (profile) {
    const double total = times.total_s;
    const auto pct = [total](double s) {
      return total > 0.0 ? 100.0 * s / total : 0.0;
    };
    const double rate = total > 0.0
                            ? static_cast<double>(times.records) / total / 1e6
                            : 0.0;
    std::printf("  profile (%llu records, %llu blocks, %.1f Mrec/s)\n",
                static_cast<unsigned long long>(times.records),
                static_cast<unsigned long long>(times.blocks), rate);
    std::printf("    decode   %10.6f s  (%5.1f%%)\n", times.decode_s,
                pct(times.decode_s));
    std::printf("    access   %10.6f s  (%5.1f%%)\n", times.access_s,
                pct(times.access_s));
    std::printf("    retire   %10.6f s  (%5.1f%%)\n", times.retire_s(),
                pct(times.retire_s()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      print_usage(stderr);
      return 2;
    }
    const char* command = argv[1];
    if (std::strcmp(command, "record") == 0) {
      return cmd_record(argc, argv);
    }
    if (std::strcmp(command, "info") == 0) {
      return cmd_info(argc, argv);
    }
    if (std::strcmp(command, "fsck") == 0) {
      return cmd_fsck(argc, argv);
    }
    if (std::strcmp(command, "replay") == 0) {
      return cmd_replay(argc, argv);
    }
    if (std::strcmp(command, "--help") == 0 ||
        std::strcmp(command, "-h") == 0 ||
        std::strcmp(command, "help") == 0) {
      print_usage(stdout);
      return 0;
    }
    print_usage(stderr);
    std::fprintf(stderr, "\nunknown command: %s\n", command);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hvc_trace: %s\n", error.what());
    return 1;
  }
}
