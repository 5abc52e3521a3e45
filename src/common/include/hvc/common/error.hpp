// Error-handling helpers shared across all hvcache modules.
//
// Style follows the C++ Core Guidelines: preconditions are checked with
// ensure()/expects() which throw rather than abort, so library users can
// recover and tests can assert on failures. Both take the message as a
// std::string_view and build the exception text only when the check
// fails, so a passing check on a hot path never touches the heap.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hvc {

/// Thrown when a precondition (caller error) is violated.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when an internal invariant is violated (library bug or
/// configuration that escaped validation).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown when a user-supplied configuration is rejected.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[nodiscard]] inline std::string locate(const std::source_location& loc) {
  return std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
         " (" + loc.function_name() + ")";
}
}  // namespace detail

/// Precondition check: throws PreconditionError when `cond` is false.
inline void expects(bool cond, std::string_view msg,
                    std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    throw PreconditionError(std::string(msg) + " at " + detail::locate(loc));
  }
}

/// Invariant check: throws InvariantError when `cond` is false.
inline void ensure(bool cond, std::string_view msg,
                   std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    throw InvariantError(std::string(msg) + " at " + detail::locate(loc));
  }
}

}  // namespace hvc
