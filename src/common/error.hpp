// Error handling: contract checks and exception types.
//
// Following the C++ Core Guidelines (I.6/E.12 family) we make preconditions
// explicit and fail loudly. Contract violations throw `ContractError` so unit
// tests can assert on them without aborting the process.
#pragma once

#include <stdexcept>
#include <string>

namespace ispb {

/// Thrown when a precondition/postcondition/invariant is violated.
class ContractError : public std::logic_error {
 public:
  explicit ContractError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown on malformed external input (files, CLI arguments).
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by a stop check once the running request's deadline has passed
/// (common/stop.hpp): the request was cut, nothing failed.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline passed: request cut") {}
};

/// Thrown when a generated IR program fails verification.
class VerifyError : public std::logic_error {
 public:
  explicit VerifyError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void contract_fail(const char* kind, const char* cond,
                                const char* file, int line);
}  // namespace detail

}  // namespace ispb

/// Precondition check. Always on (the cost is irrelevant next to the
/// simulator's work, and silent corruption would invalidate every result).
#define ISPB_EXPECTS(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ispb::detail::contract_fail("Precondition", #cond, __FILE__,     \
                                    __LINE__);                           \
  } while (false)

/// Postcondition check.
#define ISPB_ENSURES(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ispb::detail::contract_fail("Postcondition", #cond, __FILE__,    \
                                    __LINE__);                           \
  } while (false)

/// Internal invariant check.
#define ISPB_ASSERT(cond)                                                \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ispb::detail::contract_fail("Invariant", #cond, __FILE__,        \
                                    __LINE__);                           \
  } while (false)
