// Streaming .hvct trace capture/replay: format round-trip, corruption
// and truncation error paths, seeded fuzzing of the decoder, bounded-
// window reading, and the differential pin that replaying a recorded
// trace from disk is bit-identical to the in-memory run on 1- and 2-core
// systems.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/common/rng.hpp"
#include "hvc/explore/spec.hpp"
#include "hvc/sim/system.hpp"
#include "hvc/trace/trace.hpp"
#include "hvc/trace/trace_file.hpp"
#include "hvc/workloads/workload.hpp"

namespace hvc::trace {
namespace {

[[nodiscard]] std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "hvc_" + name;
}

/// Records one registry workload into `path`; returns its capture.
wl::WorkloadResult record_workload(const std::string& name,
                                   const std::string& path,
                                   std::uint64_t seed = 1) {
  wl::WorkloadResult result = wl::find_workload(name).run(seed, 1);
  EXPECT_TRUE(result.self_check);
  (void)write_trace(path, result.tracer);
  return result;
}

/// Every record of a capture, decoded.
[[nodiscard]] std::vector<Record> decoded(const Tracer& tracer) {
  MemoryTraceSource source(tracer);
  std::vector<Record> records(source.size_hint());
  records.resize(source.next_batch(records.data(), records.size()));
  return records;
}

[[nodiscard]] std::vector<Record> drain(TraceSource& source) {
  std::vector<Record> records;
  Record record;
  while (source.next(record)) {
    records.push_back(record);
  }
  return records;
}

void expect_same_records(const std::vector<Record>& a,
                         const std::vector<Record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind) << "record " << i;
    ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "record " << i;
  }
}

void expect_same_stats(const TraceStats& a, const TraceStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.data_footprint_bytes, b.data_footprint_bytes);
  EXPECT_EQ(a.code_footprint_bytes, b.code_footprint_bytes);
}

/// Reads the raw bytes of a file (for corruption tests).
[[nodiscard]] std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void patch_u64(std::vector<char>& bytes, std::size_t offset,
               std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>(value >> (8 * i));
  }
}

// ---------------------------------------------------------------------
// Round-trip
// ---------------------------------------------------------------------

TEST(TraceFile, RoundTripRecordsAndStats) {
  const std::string path = temp_path("roundtrip.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_c", path);

  TraceFileSource source(path);
  EXPECT_EQ(source.size_hint(), workload.tracer.records().size());
  const std::vector<Record> from_disk = drain(source);
  expect_same_records(from_disk, decoded(workload.tracer));
  // The footer stats are exactly Tracer::stats() of the recorded stream.
  expect_same_stats(source.info().stats, workload.tracer.stats());
  // Compact: the whole point of delta/varint encoding.
  EXPECT_LT(source.info().payload_bytes,
            4 * workload.tracer.records().size());
}

TEST(TraceFile, WriterStatsMatchTracerStats) {
  const std::string path = temp_path("writer_stats.hvct");
  const wl::WorkloadResult workload =
      wl::find_workload("epic_c").run(3, 1);
  TraceWriter writer(path);
  for (const Record& record : decoded(workload.tracer)) {
    writer.append(record);
  }
  writer.finish();
  expect_same_stats(writer.stats(), workload.tracer.stats());
  EXPECT_EQ(writer.records_written(), workload.tracer.records().size());
}

TEST(TraceFile, RecordByRecordAppendMatchesOneBatch) {
  // append() and append_batch() promise byte-identical files. Write one
  // workload both ways — record by record through a 64-byte window, so
  // flushes land mid-stream at other offsets, and as one append_batch
  // call — and compare the bytes.
  const wl::WorkloadResult workload =
      wl::find_workload("epic_c").run(3, 1);
  const std::vector<Record> records = decoded(workload.tracer);
  const std::string single = temp_path("append_single.hvct");
  const std::string batch = temp_path("append_batch.hvct");
  {
    TraceWriter writer(single, /*buffer_bytes=*/64);
    for (const Record& record : records) {
      writer.append(record);
    }
    writer.finish();
  }
  {
    TraceWriter writer(batch);
    writer.append_batch(records.data(), records.size());
    writer.finish();
  }
  const std::vector<char> a = slurp(single);
  const std::vector<char> b = slurp(batch);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "record-by-record and batch encodings differ";
}

TEST(TraceFile, TinyReadWindowDecodesIdentically) {
  // A 3-byte window forces refills inside varints — the reader must be
  // correct for any window size, not just ones that align with records.
  const std::string path = temp_path("tiny_window.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_d", path);
  TraceFileSource tiny(path, /*buffer_bytes=*/3);
  expect_same_records(drain(tiny), decoded(workload.tracer));
}

TEST(TraceFile, ResetReplaysIdentically) {
  const std::string path = temp_path("reset.hvct");
  (void)record_workload("adpcm_c", path);
  TraceFileSource source(path);
  const std::vector<Record> first = drain(source);
  source.reset();
  const std::vector<Record> second = drain(source);
  expect_same_records(first, second);
}

TEST(TraceFile, ReadTraceInfoMatchesSource) {
  const std::string path = temp_path("info.hvct");
  const wl::WorkloadResult workload = record_workload("adpcm_c", path);
  const TraceInfo info = read_trace_info(path);
  EXPECT_EQ(info.version, kTraceFormatVersion);
  EXPECT_EQ(info.flags, 0u);
  EXPECT_EQ(info.records, workload.tracer.records().size());
  expect_same_stats(info.stats, workload.tracer.stats());
  EXPECT_EQ(info.file_bytes,
            kTraceHeaderBytes + info.payload_bytes + kTraceFooterBytes);
}

// ---------------------------------------------------------------------
// Corruption / truncation error paths
// ---------------------------------------------------------------------

class TraceFileErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("errors.hvct");
    (void)record_workload("adpcm_c", path_);
    bytes_ = slurp(path_);
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(TraceFileErrors, MissingFileThrows) {
  EXPECT_THROW(TraceFileSource(temp_path("no_such_file.hvct")), ConfigError);
}

TEST_F(TraceFileErrors, TooShortFileThrows) {
  spit(path_, std::vector<char>(bytes_.begin(), bytes_.begin() + 10));
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, BadMagicThrows) {
  bytes_[0] = 'X';
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, UnsupportedVersionThrows) {
  bytes_[4] = 99;
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, NonZeroFlagsThrow) {
  bytes_[6] = 1;
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, TruncatedFooterThrows) {
  // Chopping the tail removes the footer: an unfinished or cut-off write
  // must never parse as a valid (shorter) trace.
  spit(path_, std::vector<char>(bytes_.begin(), bytes_.end() - 40));
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

TEST_F(TraceFileErrors, ReservedTagBitsThrow) {
  // The first payload byte is always a record tag; its reserved bits
  // must be zero.
  bytes_[kTraceHeaderBytes] = static_cast<char>(0xF8);
  spit(path_, bytes_);
  TraceFileSource source(path_);
  Record record;
  EXPECT_THROW((void)source.next(record), ConfigError);
}

TEST_F(TraceFileErrors, RecordCountBeyondPayloadThrows) {
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  const TraceInfo info = read_trace_info(path_);
  // Claim one more record (and one more instruction, keeping the footer
  // kind-counts consistent): the payload must run dry mid-decode.
  patch_u64(bytes_, footer + 8, info.records + 1);
  patch_u64(bytes_, footer + 16, info.stats.instructions + 1);
  spit(path_, bytes_);
  TraceFileSource source(path_);
  Record record;
  EXPECT_THROW(
      {
        while (source.next(record)) {
        }
      },
      ConfigError);
}

TEST_F(TraceFileErrors, LeftoverPayloadThrows) {
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  const TraceInfo info = read_trace_info(path_);
  patch_u64(bytes_, footer + 8, info.records - 1);
  patch_u64(bytes_, footer + 16, info.stats.instructions - 1);
  spit(path_, bytes_);
  TraceFileSource source(path_);
  Record record;
  EXPECT_THROW(
      {
        while (source.next(record)) {
        }
      },
      ConfigError);
}

TEST_F(TraceFileErrors, InconsistentFooterCountsThrow) {
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  const TraceInfo info = read_trace_info(path_);
  patch_u64(bytes_, footer + 8, info.records + 7);  // stats no longer sum
  spit(path_, bytes_);
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);
}

// ---------------------------------------------------------------------
// fsck / repair (hostile-input classification and salvage)
// ---------------------------------------------------------------------

class TraceFsck : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("fsck.hvct");
    capture_ = record_workload("adpcm_c", path_);
    bytes_ = slurp(path_);
    info_ = read_trace_info(path_);
  }

  std::string path_;
  wl::WorkloadResult capture_;
  std::vector<char> bytes_;
  TraceInfo info_;
};

TEST_F(TraceFsck, CleanFileReportsCleanAndRepairIsANoOp) {
  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kClean);
  EXPECT_EQ(report.records, info_.records);
  EXPECT_EQ(report.payload_bytes, info_.payload_bytes);
  EXPECT_EQ(report.file_bytes, info_.file_bytes);
  expect_same_stats(report.stats, info_.stats);

  EXPECT_EQ(repair_trace(path_).status, TraceFsckStatus::kClean);
  EXPECT_EQ(slurp(path_), bytes_) << "repair modified a clean file";
}

TEST_F(TraceFsck, TruncatedTailIsRecoverableAndRepairSalvagesThePrefix) {
  // Cut the footer plus a payload tail: the image a killed writer (or a
  // cut-short copy) leaves behind, with the last record likely torn
  // mid-varint. The strict reader must reject it, fsck must classify it,
  // and repair must hand back a file every reader accepts.
  spit(path_, std::vector<char>(
                  bytes_.begin(),
                  bytes_.end() - static_cast<std::ptrdiff_t>(
                                     kTraceFooterBytes + 25)));
  EXPECT_THROW(TraceFileSource{path_}, ConfigError);

  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_GT(report.records, 0u);
  EXPECT_LT(report.records, info_.records);

  const TraceFsckReport repaired = repair_trace(path_);
  EXPECT_EQ(repaired.status, TraceFsckStatus::kClean);
  EXPECT_EQ(repaired.records, report.records);
  EXPECT_EQ(fsck_trace(path_).status, TraceFsckStatus::kClean);

  // The salvaged file replays exactly the first N records of the
  // original capture — same kinds, taken flags and absolute addresses.
  TraceFileSource source(path_);
  const std::vector<Record> kept = drain(source);
  const std::vector<Record> original = decoded(capture_.tracer);
  ASSERT_EQ(kept.size(), report.records);
  expect_same_records(
      kept, {original.begin(),
             original.begin() + static_cast<std::ptrdiff_t>(kept.size())});
}

TEST_F(TraceFsck, LyingFooterIsRecoverableAndRepairRestoresTheTruth) {
  // A footer whose counts disagree with the payload (here: record count
  // inflated, so the kind-sum check fails). The payload itself is fully
  // decodable, so repair recomputes the original footer bit-for-bit.
  const std::size_t footer = bytes_.size() - kTraceFooterBytes;
  patch_u64(bytes_, footer + 8, info_.records + 7);
  spit(path_, bytes_);

  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_EQ(report.records, info_.records);

  EXPECT_EQ(repair_trace(path_).status, TraceFsckStatus::kClean);
  const std::vector<char> repaired = slurp(path_);
  patch_u64(bytes_, footer + 8, info_.records);  // undo the lie
  EXPECT_EQ(repaired, bytes_);
}

TEST_F(TraceFsck, BadHeaderIsCorruptAndUnrepairable) {
  bytes_[0] = 'X';
  spit(path_, bytes_);
  EXPECT_EQ(fsck_trace(path_).status, TraceFsckStatus::kCorrupt);
  EXPECT_THROW((void)repair_trace(path_), ConfigError);

  // Sub-header files are corrupt too (there is nothing to classify).
  spit(path_, std::vector<char>(8, 'x'));
  EXPECT_EQ(fsck_trace(path_).status, TraceFsckStatus::kCorrupt);
}

TEST_F(TraceFsck, HeaderOnlyFileRepairsToAValidEmptyTrace) {
  // A writer killed right after creation: 12 header bytes, no payload,
  // no footer. Recoverable with zero records; repair yields a minimal
  // valid trace.
  spit(path_, std::vector<char>(bytes_.begin(),
                                bytes_.begin() + kTraceHeaderBytes));
  const TraceFsckReport report = fsck_trace(path_);
  EXPECT_EQ(report.status, TraceFsckStatus::kRecoverable);
  EXPECT_EQ(report.records, 0u);

  EXPECT_EQ(repair_trace(path_).status, TraceFsckStatus::kClean);
  TraceFileSource source(path_);
  EXPECT_TRUE(drain(source).empty());
}

// ---------------------------------------------------------------------
// Fuzzing: seeded byte flips, truncations and splices of a recorded trace
// ---------------------------------------------------------------------

/// A mutated copy of `bytes`: kind 0 flips one to four bits anywhere in
/// the file, kind 1 truncates it, kind 2 splices it (a prefix joined to
/// a suffix that starts elsewhere, dropping or repeating a span).
[[nodiscard]] std::vector<char> mutate(const std::vector<char>& bytes,
                                       Rng& rng, int kind) {
  std::vector<char> out = bytes;
  if (kind == 0) {
    const std::uint64_t flips = 1 + rng.below(4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      out[rng.below(out.size())] ^= static_cast<char>(1u << rng.below(8));
    }
  } else if (kind == 1) {
    out.resize(rng.below(out.size()));
  } else {
    const std::size_t cut = rng.below(out.size());
    const std::size_t resume = rng.below(out.size());
    out.assign(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(resume),
               bytes.end());
  }
  return out;
}

TEST(TraceFuzz, MutatedTracesDecodeToTheirRecordCountOrThrowConfigError) {
  const std::string original_path = temp_path("fuzz_original.hvct");
  (void)record_workload("adpcm_d", original_path);
  const std::vector<char> original = slurp(original_path);
  const std::string path = temp_path("fuzz_case.hvct");
  Rng rng(0xF022);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 240; ++i) {
    spit(path, mutate(original, rng, i % 3));
    // Small read windows cut records at many offsets; the rest read in
    // the default window.
    const std::size_t window =
        i % 2 == 0 ? kTraceIoBufferBytes : 1 + rng.below(32);
    bool decodes = false;
    try {
      TraceFileSource source(path, window);
      Record block[kReplayBlockRecords];
      std::uint64_t records = 0;
      std::size_t got = 0;
      while ((got = source.next_batch(block, kReplayBlockRecords)) > 0) {
        records += got;
      }
      EXPECT_EQ(records, source.info().records) << "case " << i;
      decodes = true;
    } catch (const ConfigError&) {
    }
    ++(decodes ? decoded : rejected);
    try {
      const TraceFsckReport report = fsck_trace(path);
      // A clean verdict means every check of the strict reader holds.
      if (report.status == TraceFsckStatus::kClean) {
        EXPECT_TRUE(decodes) << "case " << i << ": " << report.detail;
      }
      EXPECT_LE(kTraceHeaderBytes + report.payload_bytes, report.file_bytes)
          << "case " << i;
    } catch (const ConfigError&) {
    }
  }
  // Both outcomes occur, or the mutations test nothing.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------
// Writer durability (injected write failures)
// ---------------------------------------------------------------------

TEST(TraceWriterDurability, EnospcSurfacesAsConfigErrorWithErrnoText) {
  // /dev/full fails every kernel-level write with ENOSPC — the classic
  // full-disk crash. The writer must surface that as ConfigError carrying
  // the errno text, never report success over a torn file.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  bool threw = false;
  std::string message;
  try {
    TraceWriter writer("/dev/full");
    Record record;
    record.kind = Kind::kIfetch;
    record.taken = false;
    // Enough records to overflow the writer's window and stdio's buffer,
    // forcing a real write() whatever the buffering; if every layer soaks
    // it up, finish()'s fflush/fsync must still hit the wall.
    for (std::uint64_t i = 0; i < 300000; ++i) {
      record.addr = 0x1000 + 4 * i;
      writer.append(record);
    }
    writer.finish();
  } catch (const ConfigError& error) {
    threw = true;
    message = error.what();
  }
  EXPECT_TRUE(threw) << "full-device write reported success";
  EXPECT_NE(message.find("No space left"), std::string::npos) << message;
}

// ---------------------------------------------------------------------
// Trace reference helpers (explore axis syntax)
// ---------------------------------------------------------------------

TEST(TraceRef, SpecAxesAcceptTraceRefs) {
  // Parse-time validation only checks the syntax — the file is opened
  // when a point runs, so specs can be written before the trace exists.
  const explore::SweepSpec plain = explore::SweepSpec::parse(R"({
    "kind": "simulation",
    "axes": {"workload": ["gsm_c", "trace:/tmp/foreign.hvct"]}
  })");
  ASSERT_EQ(plain.workloads.size(), 2u);
  EXPECT_EQ(plain.workloads[1], "trace:/tmp/foreign.hvct");

  const explore::SweepSpec mix = explore::SweepSpec::parse(R"({
    "kind": "simulation",
    "axes": {"cores": [2], "workload_mix": ["gsm_c+trace:/tmp/a.hvct"]}
  })");
  ASSERT_EQ(mix.workload_mixes.size(), 1u);

  // Unknown plain names and empty refs still fail fast.
  EXPECT_THROW((void)explore::SweepSpec::parse(R"({
    "kind": "simulation", "axes": {"workload": ["nope"]}
  })"),
               ConfigError);
  EXPECT_THROW((void)explore::SweepSpec::parse(R"({
    "kind": "simulation", "axes": {"workload_mix": ["gsm_c+nope"]}
  })"),
               ConfigError);
}

TEST(TraceRef, PrefixParsing) {
  EXPECT_TRUE(is_trace_ref("trace:/tmp/a.hvct"));
  EXPECT_TRUE(is_trace_ref("trace:rel/path.hvct"));
  EXPECT_FALSE(is_trace_ref("trace:"));
  EXPECT_FALSE(is_trace_ref("gsm_c"));
  EXPECT_FALSE(is_trace_ref("tracer:x"));
  EXPECT_EQ(trace_ref_path("trace:/tmp/a.hvct"), "/tmp/a.hvct");
  EXPECT_THROW((void)trace_ref_path("gsm_c"), ConfigError);
  EXPECT_THROW((void)trace_ref_path("trace:"), ConfigError);
}

// ---------------------------------------------------------------------
// Differential pins: disk replay == in-memory replay, bit for bit
// ---------------------------------------------------------------------

/// Every timing field, every energy category, every level stat.
void expect_bit_identical(const cpu::RunResult& a, const cpu::RunResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  const auto& items_a = a.energy.items();
  const auto& items_b = b.energy.items();
  ASSERT_EQ(items_a.size(), items_b.size());
  for (const auto& [key, value] : items_a) {
    EXPECT_EQ(value, b.energy.get(key)) << "category " << key;
  }
  EXPECT_EQ(a.il1.accesses, b.il1.accesses);
  EXPECT_EQ(a.il1.hits, b.il1.hits);
  EXPECT_EQ(a.dl1.accesses, b.dl1.accesses);
  EXPECT_EQ(a.dl1.hits, b.dl1.hits);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].name, b.levels[i].name);
    EXPECT_EQ(a.levels[i].accesses, b.levels[i].accesses);
    EXPECT_EQ(a.levels[i].hits, b.levels[i].hits);
    EXPECT_EQ(a.levels[i].fills, b.levels[i].fills);
    EXPECT_EQ(a.levels[i].writebacks, b.levels[i].writebacks);
    EXPECT_EQ(a.levels[i].dynamic_energy_j, b.levels[i].dynamic_energy_j);
  }
}

TEST(TraceReplayDifferential, SingleCoreDiskReplayBitIdentical) {
  const std::string path = temp_path("diff_gsm.hvct");
  (void)record_workload("gsm_c", path);

  sim::SystemConfig config;
  const cpu::RunResult live =
      sim::run_one(config, "gsm_c", /*workload_seed=*/1);

  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  TraceFileSource source(path);
  const cpu::RunResult replayed = system.run_trace(source);
  expect_bit_identical(replayed, live);

  // The trace:<path> spelling drives the same replay.
  sim::System by_ref(config, sim::cell_plan_for(config.design.scenario));
  expect_bit_identical(by_ref.run_workload("trace:" + path), live);
}

TEST(TraceReplayDifferential, TwoCoreDiskReplayBitIdentical) {
  // Record each core's trace at the seed run_mix derives for that core,
  // then stream both from disk through the interleaver: the whole
  // MulticoreResult must match the in-memory mix bit for bit.
  const std::string gsm_path = temp_path("diff_mix_gsm.hvct");
  const std::string adpcm_path = temp_path("diff_mix_adpcm.hvct");
  (void)record_workload("gsm_c", gsm_path,
                        sim::System::core_workload_seed(1, 0));
  (void)record_workload("adpcm_c", adpcm_path,
                        sim::System::core_workload_seed(1, 1));

  sim::SystemConfig config;
  config.num_cores = 2;

  sim::System live_system(config,
                          sim::cell_plan_for(config.design.scenario));
  const sim::MulticoreResult live =
      live_system.run_mix({"gsm_c", "adpcm_c"}, /*seed=*/1);

  sim::System replay_system(config,
                            sim::cell_plan_for(config.design.scenario));
  const sim::MulticoreResult replayed = replay_system.run_mix(
      {"trace:" + gsm_path, "trace:" + adpcm_path}, /*seed=*/1);

  ASSERT_EQ(replayed.per_core.size(), live.per_core.size());
  for (std::size_t c = 0; c < live.per_core.size(); ++c) {
    expect_bit_identical(replayed.per_core[c], live.per_core[c]);
  }
  expect_bit_identical(replayed.aggregate, live.aggregate);
}

TEST(TraceReplayDifferential, UleSmallBenchDiskReplayBitIdentical) {
  // Fig. 4 shape: proposed design at ULE over a SmallBench kernel.
  const std::string path = temp_path("diff_ule.hvct");
  (void)record_workload("adpcm_c", path);

  sim::SystemConfig config;
  config.design.proposed = true;
  config.mode = power::Mode::kUle;
  const cpu::RunResult live = sim::run_one(config, "adpcm_c", 1);

  sim::System system(config, sim::cell_plan_for(config.design.scenario));
  TraceFileSource source(path);
  expect_bit_identical(system.run_trace(source), live);
}

}  // namespace
}  // namespace hvc::trace
