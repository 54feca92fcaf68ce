// Error handling primitives for the SPARCS-TP libraries.
//
// Invariant violations and invalid arguments raise exceptions derived from
// sparcs::Error; recoverable solver outcomes (infeasible, limit reached, ...)
// are reported through status enums, never through exceptions.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace sparcs {

/// Base class of all exceptions thrown by SPARCS-TP.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller passes arguments that violate a documented precondition.
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// Thrown when an internal invariant is found broken (a bug in this library).
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

/// Rejects bad user input (a flag, a request, an input file) with `message`
/// alone. SPARCS_REQUIRE is for broken caller preconditions: it would prefix
/// the failed expression and its source location. A literal message is
/// copied into a string only on failure.
inline void require_input(bool ok, std::string_view message) {
  if (!ok) throw InvalidArgumentError(std::string(message));
}

namespace detail {
[[noreturn]] void throw_check_failure(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& message);
}  // namespace detail

}  // namespace sparcs

/// Validates a documented precondition; throws InvalidArgumentError on failure.
#define SPARCS_REQUIRE(cond, msg)                                             \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ::sparcs::detail::throw_check_failure("precondition", #cond, __FILE__,  \
                                            __LINE__, (msg));                 \
    }                                                                         \
  } while (false)

/// Validates an internal invariant; throws InternalError on failure.
#define SPARCS_CHECK(cond, msg)                                               \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ::sparcs::detail::throw_check_failure("invariant", #cond, __FILE__,     \
                                            __LINE__, (msg));                 \
    }                                                                         \
  } while (false)
