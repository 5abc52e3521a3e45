// Service layer of the sweep engine: `hvc_explore serve`.
//
// A Service is a long-running process wrapped around ONE shared Executor
// and (optionally) ONE writable result store. Clients connect over a
// Unix-domain socket and send line-delimited JSON queries; each query is
// a full sweep spec, answered warm from the store where possible and
// scheduled cold on the shared pool otherwise, with rows streamed back
// as they are emitted (in point order — the same bytes a batch run
// would produce). Several clients run concurrently; they share the
// executor's threads and the process-wide sizing memo
// (sim::cell_plan_for), so a second client asking for an overlapping
// design space pays nothing for the overlap.
//
// Wire protocol (one JSON document per line, both directions):
//   request   {"spec": {...sweep spec...}, "id": <any>?}
//   response  {"event":"begin","id"?,"name","kind","points",
//              "columns":[...],"csv_header": "<header line>"}
//             {"event":"row","id"?,"seq":N,"csv":"<one CSV line>"}   xN
//             {"event":"end","id"?,"points","warm","cold"}
//             {"event":"error","id"?,"error":"<message>"}
// "csv" strings carry no trailing newline; joining csv_header and every
// row with '\n' (plus a final '\n') reproduces the batch CSV byte for
// byte. "id" is echoed verbatim when the request carried one. After an
// error event the connection stays usable for further requests, except
// after a request line longer than UnixStream::kMaxLineBytes (1 MiB): it
// gets an error event naming the cap, and then the daemon closes the
// connection.
//
// Connections: each client is served on its own thread. The accept loop
// joins the threads of connections that have ended before it starts a
// new one, so a long-lived daemon holds threads (and their stacks) only
// for live clients, not for every client it ever accepted. At most
// UnixStream::kMaxClients (64) clients are served at once: a connection
// beyond that gets one error event naming the cap and is closed, and
// the daemon serves on.
//
// Shutdown: request_stop() is async-signal-safe (it only writes one
// byte to a self-pipe). The accept loop wakes, in-flight queries are
// cancelled (clients get an error event), connection threads are
// joined, the store is closed CLEANLY (dirty flag cleared — a
// SIGTERM'd daemon leaves `store fsck` exit 0), and the socket file is
// removed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "hvc/common/socket.hpp"

namespace hvc::store {
class ResultStore;
}

namespace hvc::explore {

class Executor;

struct ServeOptions {
  std::string socket_path;
  std::string store_path;  ///< empty = no persistent store
  bool resume = false;     ///< recover a dirty store on open
  std::size_t threads = 1;
  /// Prints "listening on <socket>" to stderr once bound (the readiness
  /// line scripts wait for). Off in in-process tests.
  bool announce = false;
};

class Service {
 public:
  explicit Service(ServeOptions options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds the socket and serves until request_stop(). Returns after a
  /// clean shutdown (store closed, socket unlinked). Throws when the
  /// socket or store cannot be opened at all.
  void run();

  /// Async-signal-safe shutdown trigger: one self-pipe write. The
  /// daemon installs this as its SIGTERM/SIGINT action.
  void request_stop() noexcept { stop_pipe_.signal(); }

  /// Blocks until run() has bound the socket and accepts connections
  /// (or has already finished). For tests that race a client thread.
  void wait_ready();

 private:
  /// One client's thread; it sets `done` as its last act.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void serve_connection(UnixStream stream);
  void handle_request(UnixStream& stream, const std::string& line);
  /// Joins and drops every connection whose thread has finished.
  void reap_finished_connections();

  ServeOptions options_;
  WakePipe stop_pipe_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<store::ResultStore> store_;

  std::mutex mutex_;
  std::condition_variable ready_;
  bool bound_ = false;
  bool finished_ = false;
  /// Touched only by run()'s thread. A list, so each thread's `done`
  /// flag keeps its address while other entries come and go.
  std::list<Connection> connections_;
};

/// The `hvc_explore serve` entry point: installs SIGTERM/SIGINT
/// handlers that request_stop() the service, runs it, and returns a
/// process exit code (0 on clean shutdown).
int run_serve(const ServeOptions& options);

}  // namespace hvc::explore
