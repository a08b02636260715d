// Status / StatusOr: lightweight error propagation in the RocksDB / Arrow
// style. The library does not throw exceptions; fallible operations return
// Status (or StatusOr<T> when they produce a value).

#ifndef DBSA_UTIL_STATUS_H_
#define DBSA_UTIL_STATUS_H_

#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace dbsa {

/// Codes are stable wire values (transport.h ships them as u8): append
/// only, never renumber.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kUnimplemented = 4,
  kInternal = 5,
  kDeadlineExceeded = 6,
  kCancelled = 7,  ///< Reserved: nothing produces it.
  kUnavailable = 8,
  kFailedPrecondition = 9,
};

/// Stable upper bound of the enum (wire validation).
inline constexpr StatusCode kMaxStatusCode = StatusCode::kFailedPrecondition;

/// Number of StatusCode values. Every non-switch dispatch over
/// StatusCode (name tables, wire validation) pins this with an adjacent
/// `static_assert(kStatusCodeCount == ...)`, so appending a code is a
/// compile error at each handling site instead of a silent fallthrough
/// (-Werror=switch-enum already covers the plain switches).
inline constexpr int kStatusCodeCount = 10;
static_assert(static_cast<int>(kMaxStatusCode) + 1 == kStatusCodeCount,
              "StatusCode grew: bump kStatusCodeCount, then fix every "
              "static_assert(kStatusCodeCount == ...) handling site the "
              "bump flushes out");

const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Exception carrier for a non-OK Status: lets status-typed failures
/// cross code that still propagates by throwing (thread-pool futures,
/// scatter-gather fan-outs) without collapsing to untyped text — the
/// catch site recovers the full Status.
class StatusException : public std::runtime_error {
 public:
  explicit StatusException(Status status)
      : std::runtime_error(status.message()), status_(std::move(status)) {
    DBSA_CHECK(!status_.ok());
  }

  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Either a value of type T or an error Status. Accessing the value of a
/// non-OK StatusOr aborts (programming error).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {                 // NOLINT
    DBSA_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    DBSA_CHECK(status_.ok());
    return value_;
  }
  T& value() & {
    DBSA_CHECK(status_.ok());
    return value_;
  }
  T&& value() && {
    DBSA_CHECK(status_.ok());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  T value_{};
};

}  // namespace dbsa

#endif  // DBSA_UTIL_STATUS_H_
