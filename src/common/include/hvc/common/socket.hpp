// Minimal Unix-domain stream sockets for the hvc_explore serve daemon
// (and its tests): a listener with stale-socket recovery, a buffered
// line-oriented stream, and a self-pipe for signal-safe wakeups.
//
// Everything here is POSIX-only, like the flock-based store the daemon
// serves. Interruption is cooperative: blocking reads/accepts take an
// optional `wake_fd` and return early the moment it becomes readable —
// callers hand in a WakePipe's read end and NEVER drain it, so one
// signal() wakes every waiter, forever (level-triggered by design).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace hvc {

/// One connected Unix-domain stream, move-only, closed on destruction.
/// Reads are line-buffered; writes are all-or-error.
class UnixStream {
 public:
  UnixStream() = default;
  explicit UnixStream(int fd) : fd_(fd) {}
  ~UnixStream();

  UnixStream(UnixStream&& other) noexcept;
  UnixStream& operator=(UnixStream&& other) noexcept;
  UnixStream(const UnixStream&) = delete;
  UnixStream& operator=(const UnixStream&) = delete;

  /// Connects to a listening daemon; throws ConfigError when nothing
  /// listens there (or the path is unusable).
  [[nodiscard]] static UnixStream connect(const std::string& path);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes all bytes (SIGPIPE suppressed). Returns false when the peer
  /// hung up — a normal event for a daemon, not an error — and throws
  /// ConfigError on real I/O failures.
  bool send_all(const void* data, std::size_t bytes);
  /// send_all of line + '\n'.
  bool send_line(const std::string& line);

  /// Longest line read_line() accepts (terminator excluded). It bounds
  /// the read buffer; the daemon's requests and events are far smaller.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
  /// Most client streams the daemon serves at once. Together with
  /// kMaxLineBytes it bounds the daemon's threads and read buffers.
  static constexpr std::size_t kMaxClients = 64;

  enum class ReadStatus {
    kLine,         ///< `out` holds one line (terminator stripped)
    kEof,          ///< peer closed cleanly (partial trailing data dropped)
    kInterrupted,  ///< wake_fd became readable before a full line arrived
    kTooLong,      ///< the line exceeds kMaxLineBytes; the stream is out
                   ///< of step and should be closed
  };

  /// Blocks for the next '\n'-terminated line. With wake_fd >= 0 the
  /// wait also ends (kInterrupted) when that fd is readable; the fd is
  /// left untouched so it keeps waking other waiters. A longer line than
  /// kMaxLineBytes ends the wait with kTooLong as soon as one byte too
  /// many has arrived. Every received byte is scanned for the terminator
  /// once, however many recv() calls a line takes.
  ReadStatus read_line(std::string& out, int wake_fd = -1);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
};

/// A bound + listening Unix-domain socket. Binding recovers from stale
/// socket files (a crashed daemon's leftover): when the path is in use
/// but nothing accepts connections there, it is unlinked and rebound;
/// when a live daemon answers, binding fails with ConfigError.
class UnixListener {
 public:
  UnixListener() = default;
  ~UnixListener();

  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  [[nodiscard]] static UnixListener bind(const std::string& path);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Blocks for the next connection; nullopt when wake_fd became
  /// readable instead (shutdown requested).
  [[nodiscard]] std::optional<UnixStream> accept(int wake_fd = -1);

  /// Closes the listening socket and removes the socket file.
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string path_;
};

/// Self-pipe: signal() is async-signal-safe (one write() of one byte),
/// read_fd() becomes readable and STAYS readable — waiters poll it but
/// never read from it, so a single signal() releases every current and
/// future waiter. The canonical clean-shutdown primitive for the serve
/// daemon's SIGTERM handler.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  [[nodiscard]] int read_fd() const noexcept { return fds_[0]; }
  [[nodiscard]] bool signalled() const noexcept;
  void signal() noexcept;

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace hvc
