// In-process tests for the hvc_explore serve daemon: the line-delimited
// JSON protocol, byte-identity of streamed rows against run_sweep,
// concurrent clients sharing one executor and store, error events for
// bad requests, overlong lines and clients past the cap, and the
// clean-shutdown contract (a stopped daemon's store passes fsck with
// exit-code-0 status, and a resumed daemon answers the same bytes warm).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "hvc/common/json.hpp"
#include "hvc/common/socket.hpp"
#include "hvc/explore/engine.hpp"
#include "hvc/explore/service.hpp"
#include "hvc/store/store.hpp"

namespace hvc::explore {
namespace {

constexpr const char* kSpecText = R"({
  "name": "serve_test",
  "kind": "simulation",
  "seed": 5,
  "axes": {
    "scenario": ["A"],
    "design": ["baseline", "proposed"],
    "mode": ["hp", "ule"],
    "workload": ["adpcm_c", "gsm_c"]
  }
})";

[[nodiscard]] std::string temp_name(const std::string& stem) {
  const std::string path = ::testing::TempDir() + "hvc_serve_" + stem;
  std::remove(path.c_str());
  return path;
}

/// Runs a Service on its own thread; the destructor stops and joins it.
class ServiceRunner {
 public:
  explicit ServiceRunner(ServeOptions options)
      : service_(std::move(options)),
        thread_([this] { service_.run(); }) {
    service_.wait_ready();
  }

  ~ServiceRunner() { stop(); }

  void stop() {
    service_.request_stop();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  Service& service() { return service_; }

 private:
  Service service_;
  std::thread thread_;
};

/// One query, parsed client-side: the reconstructed CSV plus the end
/// event's warm/cold tallies (or the error message).
struct QueryResult {
  std::string csv;
  std::size_t warm = 0;
  std::size_t cold = 0;
  std::string error;
  std::string id_echo;  ///< the id the first event carried back, dumped
};

/// One query on an open connection.
[[nodiscard]] QueryResult query_on(UnixStream& stream,
                                   const std::string& spec_text,
                                   const std::string& id = "") {
  Json request;
  request.set("spec", Json::parse(spec_text));
  if (!id.empty()) {
    request.set("id", Json(id));
  }
  EXPECT_TRUE(stream.send_line(request.dump()));

  QueryResult result;
  std::vector<std::string> lines;
  std::string line;
  for (;;) {
    const UnixStream::ReadStatus status = stream.read_line(line);
    if (status != UnixStream::ReadStatus::kLine) {
      ADD_FAILURE() << "daemon hung up before the end event";
      return result;
    }
    const Json event = Json::parse(line);
    const std::string kind = event.at("event").as_string();
    if (const Json* echoed = event.find("id")) {
      result.id_echo = echoed->dump();
    }
    if (kind == "error") {
      result.error = event.at("error").as_string();
      return result;
    }
    if (kind == "begin") {
      lines.push_back(event.at("csv_header").as_string());
    } else if (kind == "row") {
      EXPECT_EQ(static_cast<std::size_t>(event.at("seq").as_number()), lines.size() - 1);
      lines.push_back(event.at("csv").as_string());
    } else if (kind == "end") {
      result.warm = static_cast<std::size_t>(event.at("warm").as_number());
      result.cold = static_cast<std::size_t>(event.at("cold").as_number());
      EXPECT_EQ(static_cast<std::size_t>(event.at("points").as_number()), lines.size() - 1);
      for (const std::string& row : lines) {
        result.csv += row;
        result.csv += '\n';
      }
      return result;
    }
  }
}

/// One query on a fresh connection.
[[nodiscard]] QueryResult query(const std::string& socket_path,
                                const std::string& spec_text,
                                const std::string& id = "") {
  UnixStream stream = UnixStream::connect(socket_path);
  return query_on(stream, spec_text, id);
}

TEST(ServeTest, StreamedRowsAreByteIdenticalToBatchRunSweep) {
  const std::string socket_path = temp_name("basic.sock");
  ServiceRunner runner(ServeOptions{socket_path, "", false, 2, false});

  const QueryResult result = query(socket_path, kSpecText, "q1");
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.id_echo, "\"q1\"");
  const SweepSpec spec = SweepSpec::parse(kSpecText);
  EXPECT_EQ(result.csv, run_sweep(spec, 1).to_csv());
  EXPECT_EQ(result.warm, 0u);
  EXPECT_EQ(result.cold, spec.point_count());
}

TEST(ServeTest, SecondQueryOnOneConnectionAndBadRequestRecovery) {
  const std::string socket_path = temp_name("multi.sock");
  ServiceRunner runner(ServeOptions{socket_path, "", false, 2, false});

  UnixStream stream = UnixStream::connect(socket_path);
  // A malformed request gets an error event and leaves the connection
  // usable.
  ASSERT_TRUE(stream.send_line(R"({"spec": {"axes": {"bogus": [1]}}})"));
  std::string line;
  ASSERT_EQ(stream.read_line(line), UnixStream::ReadStatus::kLine);
  const Json error_event = Json::parse(line);
  EXPECT_EQ(error_event.at("event").as_string(), "error");

  // The same connection then serves a real query.
  Json request;
  request.set("spec", Json::parse(kSpecText));
  ASSERT_TRUE(stream.send_line(request.dump()));
  std::size_t rows = 0;
  for (;;) {
    ASSERT_EQ(stream.read_line(line), UnixStream::ReadStatus::kLine);
    const Json event = Json::parse(line);
    const std::string kind = event.at("event").as_string();
    if (kind == "row") {
      ++rows;
    }
    if (kind == "end") {
      break;
    }
    ASSERT_NE(kind, "error");
  }
  EXPECT_EQ(rows, SweepSpec::parse(kSpecText).point_count());
}

TEST(ServeTest, ConcurrentClientsShareTheStoreAndStayByteIdentical) {
  const std::string socket_path = temp_name("concurrent.sock");
  const std::string store_path = temp_name("concurrent.hvcs");
  ServiceRunner runner(
      ServeOptions{socket_path, store_path, false, 4, false});

  // Two different sweeps in flight at once on the shared executor.
  const std::string other_spec = R"({
    "name": "serve_other",
    "kind": "methodology",
    "axes": {
      "scenario": ["A", "B"],
      "ule_vcc": {"from": 0.3, "to": 0.4, "step": 0.05}
    }
  })";
  QueryResult first, second;
  std::thread a([&] { first = query(socket_path, kSpecText, "a"); });
  std::thread b([&] { second = query(socket_path, other_spec, "b"); });
  a.join();
  b.join();

  EXPECT_TRUE(first.error.empty()) << first.error;
  EXPECT_TRUE(second.error.empty()) << second.error;
  EXPECT_EQ(first.csv, run_sweep(SweepSpec::parse(kSpecText), 1).to_csv());
  EXPECT_EQ(second.csv,
            run_sweep(SweepSpec::parse(other_spec), 1).to_csv());
  EXPECT_EQ(first.cold, first.warm + first.cold);  // nothing warm yet

  // A repeat of the first sweep is now fully warm — same bytes, no
  // re-simulation.
  const QueryResult warm = query(socket_path, kSpecText, "a2");
  EXPECT_TRUE(warm.error.empty()) << warm.error;
  EXPECT_EQ(warm.csv, first.csv);
  EXPECT_EQ(warm.warm, SweepSpec::parse(kSpecText).point_count());
  EXPECT_EQ(warm.cold, 0u);

  // Clean shutdown: the store passes fsck as clean (exit code 0).
  runner.stop();
  const store::FsckReport report = store::ResultStore::fsck(store_path);
  EXPECT_EQ(report.status, store::FsckStatus::kClean);
  std::remove(store_path.c_str());
}

TEST(ServeTest, StopMidQueryLeavesStoreCleanAndResumedDaemonAgrees) {
  const std::string socket_path = temp_name("sigterm.sock");
  const std::string store_path = temp_name("sigterm.hvcs");
  std::string reference;
  {
    ServiceRunner runner(
        ServeOptions{socket_path, store_path, false, 2, false});

    // A finished query pins the expected bytes before the interrupted
    // one.
    const QueryResult done = query(socket_path, kSpecText);
    EXPECT_TRUE(done.error.empty()) << done.error;
    reference = done.csv;

    // Fire a long sweep and stop the daemon while it streams: the
    // client sees an error (cancel) or EOF, never torn rows.
    const std::string big_spec = R"({
      "name": "serve_big",
      "kind": "simulation",
      "axes": {
        "scenario": ["A", "B"],
        "design": ["baseline", "proposed"],
        "mode": ["hp", "ule"],
        "workload": ["adpcm_c", "gsm_c", "epic_d", "mpeg2_d"],
        "scrub_interval_s": [0, 0.5]
      }
    })";
    UnixStream stream = UnixStream::connect(socket_path);
    Json request;
    request.set("spec", Json::parse(big_spec));
    ASSERT_TRUE(stream.send_line(request.dump()));
    // Wait for the first row so the sweep is demonstrably in flight.
    std::string line;
    ASSERT_EQ(stream.read_line(line), UnixStream::ReadStatus::kLine);
    runner.stop();
  }

  // The interrupted daemon still closed its store cleanly.
  const store::FsckReport report = store::ResultStore::fsck(store_path);
  EXPECT_EQ(report.status, store::FsckStatus::kClean);

  // A fresh daemon on the same store answers the finished sweep with
  // the same bytes, warm.
  {
    ServiceRunner runner(
        ServeOptions{socket_path, store_path, false, 2, false});
    const QueryResult again = query(socket_path, kSpecText);
    EXPECT_TRUE(again.error.empty()) << again.error;
    EXPECT_EQ(again.csv, reference);
    EXPECT_EQ(again.warm, SweepSpec::parse(kSpecText).point_count());
    EXPECT_EQ(again.cold, 0u);
  }
  std::remove(store_path.c_str());
}

TEST(ServeTest, OverlongRequestGetsAnErrorThenEofAndTheDaemonServesOn) {
  const std::string socket_path = temp_name("overlong.sock");
  ServiceRunner runner(ServeOptions{socket_path, "", false, 1, false});
  {
    UnixStream stream = UnixStream::connect(socket_path);
    // 2 MiB with no newline. The daemon stops reading at its cap and
    // hangs up, so this send may end early with the peer gone: either
    // outcome is fine, the events below are what the test checks.
    const std::string junk(2 * UnixStream::kMaxLineBytes, 'x');
    (void)stream.send_all(junk.data(), junk.size());
    std::string line;
    ASSERT_EQ(stream.read_line(line), UnixStream::ReadStatus::kLine);
    const Json event = Json::parse(line);
    EXPECT_EQ(event.at("event").as_string(), "error");
    EXPECT_NE(event.at("error").as_string().find(
                  std::to_string(UnixStream::kMaxLineBytes)),
              std::string::npos)
        << event.at("error").as_string();
    EXPECT_EQ(stream.read_line(line), UnixStream::ReadStatus::kEof);
  }
  // The next client is served normally.
  const QueryResult result = query(socket_path, kSpecText);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.csv, run_sweep(SweepSpec::parse(kSpecText), 1).to_csv());
}

TEST(ServeTest, ClientBeyondTheCapGetsAnErrorThenEofAndTheDaemonServesOn) {
  const std::string socket_path = temp_name("cap.sock");
  ServiceRunner runner(ServeOptions{socket_path, "", false, 1, false});
  // The daemon accepts in connection order, so the one past the cap
  // arrives while all the others are still open.
  std::vector<UnixStream> clients;
  for (std::size_t i = 0; i < UnixStream::kMaxClients; ++i) {
    clients.push_back(UnixStream::connect(socket_path));
  }
  {
    UnixStream refused = UnixStream::connect(socket_path);
    std::string line;
    ASSERT_EQ(refused.read_line(line), UnixStream::ReadStatus::kLine);
    const Json event = Json::parse(line);
    EXPECT_EQ(event.at("event").as_string(), "error");
    EXPECT_NE(event.at("error").as_string().find(
                  std::to_string(UnixStream::kMaxClients)),
              std::string::npos)
        << event.at("error").as_string();
    EXPECT_EQ(refused.read_line(line), UnixStream::ReadStatus::kEof);
  }
  // The clients within the cap are still served.
  const QueryResult result = query_on(clients.back(), kSpecText);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.csv, run_sweep(SweepSpec::parse(kSpecText), 1).to_csv());
}

/// Lines of /proc/self/maps: one per memory mapping of this process. A
/// finished but unjoined thread keeps two (its stack and guard page).
[[nodiscard]] std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t count = 0;
  for (std::string line; std::getline(maps, line);) {
    ++count;
  }
  return count;
}

TEST(ServeTest, FinishedConnectionsAreReaped) {
  const std::string socket_path = temp_name("reap.sock");
  ServiceRunner runner(ServeOptions{socket_path, "", false, 1, false});
  std::size_t after_50 = 0;
  for (std::size_t client = 1; client <= 300; ++client) {
    // Connect, then hang up: at most one client is open at a time.
    { UnixStream stream = UnixStream::connect(socket_path); }
    if (client == 50) {
      after_50 = mapping_count();
    }
  }
  // Unreaped, the last 250 connection threads would add ~500 mappings.
  EXPECT_LT(mapping_count(), after_50 + 50);
}

TEST(ServeTest, BindRefusesALiveDaemonAndRecoversAStaleSocket) {
  const std::string socket_path = temp_name("stale.sock");
  {
    ServiceRunner runner(ServeOptions{socket_path, "", false, 1, false});
    // A second daemon on the same socket must refuse to start.
    Service duplicate(ServeOptions{socket_path, "", false, 1, false});
    EXPECT_THROW(duplicate.run(), ConfigError);
  }
  // First daemon is gone; the socket file was unlinked on shutdown.
  // Simulate a crashed daemon's leftover: bind the path with raw
  // syscalls and close only the descriptor, leaving a stale socket
  // file nothing listens on. UnixListener::bind must recover it.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_un address {};
    address.sun_family = AF_UNIX;
    std::snprintf(address.sun_path, sizeof address.sun_path, "%s",
                  socket_path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&address),
                     sizeof address),
              0);
    ::close(fd);  // no unlink: the file is now stale
  }
  ServiceRunner runner(ServeOptions{socket_path, "", false, 1, false});
  const QueryResult result = query(socket_path, kSpecText);
  EXPECT_TRUE(result.error.empty()) << result.error;
}

}  // namespace
}  // namespace hvc::explore
