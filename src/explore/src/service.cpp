#include "hvc/explore/service.hpp"

#include <cstdio>
#include <optional>
#include <utility>

#include <signal.h>

#include "hvc/common/error.hpp"
#include "hvc/common/io.hpp"
#include "hvc/common/json.hpp"
#include "hvc/explore/executor.hpp"
#include "hvc/explore/point_source.hpp"
#include "hvc/explore/result_store.hpp"
#include "hvc/explore/sink.hpp"
#include "hvc/store/store.hpp"

namespace hvc::explore {

namespace {

/// The peer hung up mid-stream. Not an error for a daemon — the query
/// is aborted and the connection closed; other clients are unaffected.
struct ClientGone {};

/// Sends one error event (echoing `id` when non-null); false when the
/// client already hung up.
bool send_error(UnixStream& stream, const Json* id,
                const std::string& message) {
  Json event;
  event.set("event", Json("error"));
  if (id != nullptr) {
    event.set("id", *id);
  }
  event.set("error", Json(message));
  return stream.send_line(event.dump());
}

/// Streams one query's events onto the client socket. Lives on the
/// connection thread; the executor serializes all calls, so no locking.
class SocketSink final : public ResultSink {
 public:
  SocketSink(UnixStream& stream, Json id, bool has_id, std::size_t total)
      : stream_(stream), id_(std::move(id)), has_id_(has_id),
        total_(total) {}

  void begin(const SweepSpec& spec,
             const std::vector<std::string>& columns) override {
    Json event;
    event.set("event", Json("begin"));
    if (has_id_) {
      event.set("id", id_);
    }
    event.set("name", Json(spec.name));
    event.set("kind", Json(to_string(spec.kind)));
    event.set("points", Json(total_));
    Json::Array column_values;
    for (const auto& name : columns) {
      column_values.emplace_back(name);
    }
    event.set("columns", Json(std::move(column_values)));
    event.set("csv_header", Json(csv_line(columns)));
    send(event);
  }

  void row(std::size_t seq, const SweepPoint& point,
           const std::vector<std::string>& cells, bool warm) override {
    (void)point;
    Json event;
    event.set("event", Json("row"));
    if (has_id_) {
      event.set("id", id_);
    }
    event.set("seq", Json(seq));
    event.set("csv", Json(csv_line(cells)));
    send(event);
    ++(warm ? warm_ : cold_);
  }

  void end() override {
    Json event;
    event.set("event", Json("end"));
    if (has_id_) {
      event.set("id", id_);
    }
    event.set("points", Json(warm_ + cold_));
    event.set("warm", Json(warm_));
    event.set("cold", Json(cold_));
    send(event);
  }

 private:
  /// One CSV line through the shared formatter, newline stripped (the
  /// protocol frames with its own newlines).
  [[nodiscard]] static std::string csv_line(
      const std::vector<std::string>& fields) {
    std::string line;
    append_csv_line(line, fields);
    line.pop_back();
    return line;
  }

  void send(const Json& event) {
    if (!stream_.send_line(event.dump())) {
      throw ClientGone{};
    }
  }

  UnixStream& stream_;
  Json id_;
  bool has_id_ = false;
  std::size_t total_ = 0;
  std::size_t warm_ = 0;
  std::size_t cold_ = 0;
};

}  // namespace

Service::Service(ServeOptions options) : options_(std::move(options)) {
  expects(!options_.socket_path.empty(), "serve needs a socket path");
}

Service::~Service() = default;

void Service::wait_ready() {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return bound_ || finished_; });
}

void Service::run() {
  try {
    executor_ = std::make_unique<Executor>(options_.threads);
    if (!options_.store_path.empty()) {
      store_ = open_result_store(options_.store_path, options_.resume);
    }
    UnixListener listener = UnixListener::bind(options_.socket_path);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      bound_ = true;
      ready_.notify_all();
    }
    if (options_.announce) {
      std::fprintf(stderr, "hvc_explore serve: listening on %s (%zu "
                           "threads%s%s)\n",
                   options_.socket_path.c_str(), options_.threads,
                   store_ ? ", store " : "",
                   store_ ? options_.store_path.c_str() : "");
    }

    for (;;) {
      std::optional<UnixStream> client =
          listener.accept(stop_pipe_.read_fd());
      if (!client) {
        break;  // shutdown requested
      }
      reap_finished_connections();
      if (connections_.size() >= UnixStream::kMaxClients) {
        // Refuse on the accept thread: one small event fits the socket
        // buffer, and the stream closes as it goes out of scope.
        (void)send_error(*client, nullptr,
                         "the daemon serves at most " +
                             std::to_string(UnixStream::kMaxClients) +
                             " clients at once; closing the connection");
        continue;
      }
      Connection& connection = connections_.emplace_back();
      connection.thread = std::thread(
          [this, &connection, stream = std::move(*client)]() mutable {
            serve_connection(std::move(stream));
            connection.done = true;
          });
    }

    // Shutdown, in dependency order: abort queries so connection
    // threads unblock, join them, THEN close the store cleanly — no
    // thread can touch it afterwards, so fsck reports exit 0.
    executor_->cancel();
    for (Connection& connection : connections_) {
      connection.thread.join();
    }
    connections_.clear();
    if (store_) {
      store_->close();
      store_.reset();  // releases the flock too: fsck can run right away
    }
    listener.close();  // unlinks the socket file
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    finished_ = true;
    ready_.notify_all();
    throw;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  finished_ = true;
  ready_.notify_all();
}

void Service::reap_finished_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Service::serve_connection(UnixStream stream) {
  std::string line;
  for (;;) {
    const UnixStream::ReadStatus status =
        stream.read_line(line, stop_pipe_.read_fd());
    if (status == UnixStream::ReadStatus::kTooLong) {
      // The rest of the line is still in flight, so the stream cannot be
      // brought back in step: name the cap and hang up.
      (void)send_error(stream, nullptr,
                       "request line exceeds the " +
                           std::to_string(UnixStream::kMaxLineBytes) +
                           "-byte limit; closing the connection");
      return;
    }
    if (status != UnixStream::ReadStatus::kLine) {
      return;  // client left, or shutdown woke us
    }
    if (line.empty()) {
      continue;
    }
    try {
      handle_request(stream, line);
    } catch (const ClientGone&) {
      return;
    }
  }
}

void Service::handle_request(UnixStream& stream, const std::string& line) {
  Json id;
  bool has_id = false;
  const auto fail = [&](const std::string& message) {
    if (!send_error(stream, has_id ? &id : nullptr, message)) {
      throw ClientGone{};
    }
  };

  SweepSpec spec;
  try {
    const Json request = Json::parse(line);
    if (const Json* id_value = request.find("id")) {
      id = *id_value;
      has_id = true;
    }
    spec = SweepSpec::from_json(request.at("spec"));
    if (spec.point_count() == 0) {
      throw ConfigError("sweep has no points");
    }
  } catch (const ConfigError& error) {
    fail(error.what());  // a bad request; the connection stays open
    return;
  }

  try {
    GridPointSource source(spec);
    SocketSink socket_sink(stream, id, has_id,
                           source.estimated_remaining());
    std::optional<StoreCommitSink> commit;
    TeeSink tee;
    tee.add(&socket_sink);
    if (store_) {
      commit.emplace(store_.get(), spec);
      tee.add(&*commit);
    }
    executor_->run(spec, source, tee, store_.get());
  } catch (const ClientGone&) {
    throw;
  } catch (const std::exception& error) {
    // Point failure or shutdown-cancel: report and keep the connection
    // (a cancelled client sees the error just before the daemon exits).
    fail(error.what());
  }
}

namespace {

// run_serve signal plumbing: handlers may only do async-signal-safe
// work, which request_stop() is (one pipe write).
Service* g_service = nullptr;

extern "C" void hvc_serve_signal(int) {
  if (g_service != nullptr) {
    g_service->request_stop();
  }
}

}  // namespace

int run_serve(const ServeOptions& options) {
  Service service(options);
  g_service = &service;

  struct sigaction action {};
  action.sa_handler = hvc_serve_signal;
  struct sigaction old_term {}, old_int {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  try {
    service.run();
  } catch (...) {
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
    g_service = nullptr;
    throw;
  }
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  g_service = nullptr;
  return 0;
}

}  // namespace hvc::explore
