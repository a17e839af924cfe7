// Error handling primitives.
//
// The library uses exceptions for unrecoverable API misuse and internal
// invariant violations. `GROUT_CHECK` is for internal invariants;
// `GROUT_REQUIRE` is for validating caller-supplied arguments.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace grout {

/// Base class for all errors raised by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised on invalid arguments to a public API.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// Raised when an internal invariant is violated (a library bug).
class InternalError : public Error {
 public:
  using Error::Error;
};

/// Raised by the polyglot layer on malformed source / DSL strings.
class ParseError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] void throw_check_failed(std::string_view what, std::string_view msg,
                                     const std::source_location& loc);
}  // namespace detail

/// Validate a caller-visible precondition; throws InvalidArgument.
inline void require(bool cond, std::string_view msg,
                    const std::source_location loc = std::source_location::current()) {
  if (!cond) detail::throw_check_failed("precondition", msg, loc);
}

/// Validate an internal invariant; throws InternalError.
inline void check(bool cond, std::string_view msg,
                  const std::source_location loc = std::source_location::current()) {
  if (!cond) detail::throw_check_failed("invariant", msg, loc);
}

}  // namespace grout

// Macro spellings of the functions above. The condition is evaluated
// exactly once, the message only when the check fails: a message built by
// string concatenation costs nothing on a hot path that passes.
#define GROUT_CHECK(cond, msg) ((cond) ? void() : ::grout::check(false, (msg)))
#define GROUT_REQUIRE(cond, msg) ((cond) ? void() : ::grout::require(false, (msg)))
