// The store's headline guarantee, tested the hard way: kill the writer
// at every write boundary (deterministically, via FaultInjectingFile)
// and at hundreds of seeded commit counts (via fork + SIGKILL),
// then prove that every record committed before the fault survives
// byte-for-byte, nothing uncommitted surfaces, and a resumed writer
// completes the store byte-identically to one that was never killed.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/store/file.hpp"
#include "hvc/store/store.hpp"

namespace hvc::store {
namespace {

constexpr std::uint64_t kAppTag = 7;
constexpr std::uint64_t kScriptRecords = 8;

[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hvc_fault_" + name;
  std::remove(path.c_str());
  return path;
}

[[nodiscard]] std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

[[nodiscard]] Key key_for(std::uint64_t i) {
  return Key{i + 1, (i + 1) * 0x9e3779b97f4a7c15ULL};
}

/// Deterministic, size-varying payloads so torn tails land at different
/// alignments across records.
[[nodiscard]] std::string payload_for(std::uint64_t i) {
  return "record " + std::to_string(i) +
         std::string(static_cast<std::size_t>(3 * i + 1),
                     static_cast<char>('a' + i % 26));
}

/// The scripted writer session the deterministic sweep interrupts:
/// create, commit kScriptRecords records, close cleanly.
struct ScriptOutcome {
  std::size_t committed = 0;  ///< puts that returned before the fault
  bool completed = false;     ///< close() succeeded (no fault fired)
};

ScriptOutcome run_script(const std::string& path, std::uint64_t fail_after,
                         FaultInjectingFile::Mode mode,
                         std::size_t short_bytes) {
  ScriptOutcome outcome;
  try {
    auto file = std::make_unique<FaultInjectingFile>(
        std::make_unique<PosixFile>(path, /*writable=*/true,
                                    /*create=*/true),
        fail_after, mode, short_bytes);
    ResultStore store(std::move(file), path, OpenOptions{.app_tag = kAppTag});
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const std::string payload = payload_for(i);
      if (store.put(key_for(i), payload.data(), payload.size())) {
        ++outcome.committed;
      }
    }
    store.close();
    outcome.completed = true;
  } catch (const ConfigError&) {
    // The injected fault. Everything after it is the recovery path.
  }
  return outcome;
}

/// Counts the script's mutating operations (the sweep's kill points).
[[nodiscard]] std::uint64_t count_script_ops(const std::string& path) {
  auto file = std::make_unique<FaultInjectingFile>(
      std::make_unique<PosixFile>(path, true, true), /*fail_after=*/0);
  FaultInjectingFile* raw = file.get();
  std::uint64_t ops = 0;
  {
    ResultStore store(std::move(file), path, OpenOptions{.app_tag = kAppTag});
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const std::string payload = payload_for(i);
      EXPECT_TRUE(store.put(key_for(i), payload.data(), payload.size()));
    }
    store.close();
    ops = raw->mutations_attempted();
  }
  return ops;
}

/// Post-crash invariant check + resume: the recovered store holds
/// exactly the first `committed` records byte-for-byte, nothing else;
/// completing the script and closing makes the file byte-identical to
/// `reference` (a never-interrupted session).
void recover_and_verify(const std::string& path, std::size_t committed,
                        const std::vector<char>& reference) {
  {
    ResultStore store(path, OpenOptions{.recover = true, .app_tag = kAppTag});
    ASSERT_EQ(store.records(), committed);
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const auto got = store.get(key_for(i));
      if (i < committed) {
        ASSERT_TRUE(got.has_value()) << "lost committed record " << i;
        const std::string want = payload_for(i);
        EXPECT_EQ(*got, std::vector<std::uint8_t>(want.begin(), want.end()))
            << "record " << i;
      } else {
        EXPECT_FALSE(got.has_value())
            << "uncommitted record " << i << " surfaced";
      }
    }
    for (std::uint64_t i = 0; i < kScriptRecords; ++i) {
      const std::string payload = payload_for(i);
      const bool fresh =
          store.put(key_for(i), payload.data(), payload.size());
      EXPECT_EQ(fresh, i >= committed) << "record " << i;
    }
    store.close();
  }
  EXPECT_EQ(slurp(path), reference) << "resumed store differs from an "
                                       "uninterrupted one";
}

// ---------------------------------------------------------------------
// Deterministic sweep over every write boundary
// ---------------------------------------------------------------------

TEST(StoreFault, EveryWriteBoundaryLeavesARecoverableStore) {
  // Uninterrupted reference run: the bytes every recovered-and-resumed
  // store must converge to.
  const std::string ref_path = temp_path("reference.hvcs");
  ASSERT_TRUE(run_script(ref_path, 0, FaultInjectingFile::Mode::kFailCleanly,
                         0)
                  .completed);
  const std::vector<char> reference = slurp(ref_path);

  const std::uint64_t ops = count_script_ops(temp_path("count.hvcs"));
  ASSERT_GE(ops, kScriptRecords * 2) << "script shorter than expected";

  int kill_points = 0;
  for (const auto mode : {FaultInjectingFile::Mode::kFailCleanly,
                          FaultInjectingFile::Mode::kShortWrite}) {
    for (std::uint64_t fail = 1; fail <= ops; ++fail) {
      const std::string path = temp_path(
          "sweep_" + std::to_string(static_cast<int>(mode)) + "_" +
          std::to_string(fail) + ".hvcs");
      // Short-write prefixes vary with the kill point but stay below the
      // 28-byte record-header CRC offset, so a torn header can never
      // masquerade as a committed record.
      const std::size_t short_bytes = (fail * 7) % 13;
      const ScriptOutcome outcome = run_script(path, fail, mode, short_bytes);
      ASSERT_FALSE(outcome.completed)
          << "fault " << fail << " never fired (ops=" << ops << ")";
      ++kill_points;

      // The crash image is never corrupt: at worst a dirty store with a
      // torn tail; at best (fault in close()'s final sync) already clean.
      // The one exception is a fault inside the very first header write,
      // whose sub-header file fsck calls corrupt (nothing was committed;
      // recovery and repair both rebuild it).
      const FsckReport report = ResultStore::fsck(path);
      if (report.file_bytes >= kStoreHeaderBytes) {
        EXPECT_NE(report.status, FsckStatus::kCorrupt)
            << "mode " << static_cast<int>(mode) << " fail " << fail << ": "
            << report.detail;
      } else {
        EXPECT_EQ(outcome.committed, 0u);
      }

      recover_and_verify(path, outcome.committed, reference);
      std::remove(path.c_str());
    }
  }
  // Both modes exercised every mutating op of the session.
  EXPECT_EQ(kill_points, static_cast<int>(2 * ops));
}

TEST(StoreFault, EnospcSurfacesAsConfigErrorWithTheStoreIntact) {
  const std::string path = temp_path("enospc.hvcs");
  auto file = std::make_unique<FaultInjectingFile>(
      std::make_unique<PosixFile>(path, true, true),
      /*fail_after=*/5, FaultInjectingFile::Mode::kFailCleanly);
  ResultStore store(std::move(file), path, OpenOptions{.app_tag = kAppTag});
  const std::string first = payload_for(0);
  ASSERT_TRUE(store.put(key_for(0), first.data(), first.size()));
  // Ops so far: header write (1), header sync (2), payload (3), record
  // header (4). This put's payload write is op 5 — the injected ENOSPC.
  const std::string second = payload_for(1);
  EXPECT_THROW((void)store.put(key_for(1), second.data(), second.size()),
               ConfigError);
  // The failed put did not disturb the committed record in memory...
  EXPECT_TRUE(store.contains(key_for(0)));
  EXPECT_FALSE(store.contains(key_for(1)));
}

// ---------------------------------------------------------------------
// Randomized fork + SIGKILL
// ---------------------------------------------------------------------

/// The child's writer: opens the store, waits for the parent's go byte
/// on `go_fd`, then commits deterministic records forever, writing each
/// committed index to `report_fd` after its put() returns — until
/// SIGKILL lands somewhere inside a pwrite, between them, or (without a
/// go byte) before the first record.
[[noreturn]] void writer_child(const std::string& path, int go_fd,
                               int report_fd) {
  try {
    ResultStore store(path, OpenOptions{.app_tag = kAppTag});
    char go = 0;
    if (::read(go_fd, &go, 1) != 1) {
      ::_exit(4);
    }
    for (std::uint64_t i = 0;; ++i) {
      const std::string payload = payload_for(i % 64);
      (void)store.put(key_for(i), payload.data(), payload.size());
      if (::write(report_fd, &i, sizeof i) != sizeof i) {
        ::_exit(5);
      }
    }
  } catch (...) {
    ::_exit(3);  // only reachable on a real I/O error, not the kill
  }
}

/// Reads `count` commit reports from the child; false if it died first.
[[nodiscard]] bool await_reports(int report_fd, int count) {
  for (int i = 0; i < count; ++i) {
    std::uint64_t index = 0;
    std::size_t got = 0;
    while (got < sizeof index) {
      const ssize_t n = ::read(report_fd, reinterpret_cast<char*>(&index) + got,
                               sizeof index - got);
      if (n <= 0) {
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    if (index != static_cast<std::uint64_t>(i)) {
      return false;
    }
  }
  return true;
}

TEST(StoreFault, RandomizedSigkillNeverLosesACommittedRecord) {
  constexpr int kIterations = 200;
  // Fixed seed: failures reproduce. The kill lands after a seeded number
  // k of commits the child has reported through a pipe, so what the
  // crash image must hold does not depend on the scheduler. Every eighth
  // iteration uses k = 0: the child is killed before its first put
  // (while opening the store, or waiting for the go byte).
  std::mt19937_64 rng(0x5eedULL);
  std::uniform_int_distribution<int> reports(1, 64);

  int recovered_with_records = 0;
  int iterations_with_reports = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const int k = iteration % 8 == 0 ? 0 : reports(rng);
    iterations_with_reports += k >= 1 ? 1 : 0;
    const std::string path = temp_path("sigkill.hvcs");
    int go[2];
    int report[2];
    ASSERT_EQ(::pipe(go), 0);
    ASSERT_EQ(::pipe(report), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(go[1]);
      ::close(report[0]);
      writer_child(path, go[0], report[1]);  // never returns
    }
    ::close(go[0]);
    ::close(report[1]);
    const bool reported =
        k == 0 ||
        (::write(go[1], "g", 1) == 1 && await_reports(report[0], k));
    // Kill and reap before any assertion, so a failure leaves no child.
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ::close(go[1]);
    ::close(report[0]);
    ASSERT_TRUE(reported) << "iteration " << iteration
                          << ": child stopped reporting before " << k
                          << " commits";
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child exited on its own (status " << status << ")";

    // A k = 0 kill may land before the file exists; that's a valid
    // (trivial) crash image too.
    std::ifstream exists(path);
    if (!exists.good()) {
      ASSERT_EQ(k, 0) << "iteration " << iteration;
      continue;
    }
    {
      // Recovery must accept whatever the kill left behind — including a
      // partial header — and serve every committed record intact.
      ResultStore store(path,
                        OpenOptions{.recover = true, .app_tag = kAppTag});
      const std::size_t committed = store.records();
      // Every commit the child reported before the kill survives.
      ASSERT_GE(committed, static_cast<std::size_t>(k))
          << "iteration " << iteration;
      recovered_with_records += committed > 0 ? 1 : 0;
      for (std::uint64_t i = 0; i < committed; ++i) {
        const auto got = store.get(key_for(i));
        ASSERT_TRUE(got.has_value())
            << "iteration " << iteration << ": lost record " << i << " of "
            << committed;
        const std::string want = payload_for(i % 64);
        ASSERT_EQ(*got, std::vector<std::uint8_t>(want.begin(), want.end()))
            << "iteration " << iteration << ": record " << i << " mangled";
      }
      EXPECT_FALSE(store.contains(key_for(committed)));
      // The recovered store is a fully usable writer.
      const std::string extra = "post-recovery";
      EXPECT_TRUE(store.put(Key{~0ULL, ~0ULL}, extra.data(), extra.size()));
      store.close();
    }  // fsck below takes a shared flock; release the writer's first
    EXPECT_EQ(ResultStore::fsck(path).status, FsckStatus::kClean);
    std::remove(path.c_str());
  }
  // Exactly the iterations whose child reported a commit recover records:
  // a k = 0 child never reaches its first put.
  EXPECT_EQ(recovered_with_records, iterations_with_reports);
}

}  // namespace
}  // namespace hvc::store
