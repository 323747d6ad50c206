// Status and Result<T>: error propagation for fallible operations.
//
// The library never throws across its public API. Operations that can fail
// on user input (CSV parsing, schema lookups, option validation) return
// Status or Result<T>; pure in-memory algorithms on validated inputs return
// values directly.
#ifndef FASTOD_COMMON_STATUS_H_
#define FASTOD_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"

namespace fastod {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIoError,
  kResourceExhausted,
  kInternal,  // unexpected failure inside the library (e.g. engine threw)
  kDeadlineExceeded,  // the run's wall-clock deadline passed (timeout-ms)
  kUnavailable,       // transient overload/shutdown; retry later
};

/// "OK", "InvalidArgument", ... — the stable spelling used in ToString()
/// and machine-readable error payloads (e.g. the HTTP API's "code"
/// field).
const char* StatusCodeName(StatusCode code);

/// Lightweight status object: an error code plus a human-readable message.
/// A default-constructed Status is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
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

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> carries either a value or an error Status.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error keeps call sites terse:
  //   Result<Table> Load() { if (bad) return Status::IoError(...); return t; }
  Result(T value) : value_(std::move(value)) {}          // NOLINT
  Result(Status status) : status_(std::move(status)) {   // NOLINT
    FASTOD_CHECK(!status_.ok());  // OK statuses must carry a value.
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    FASTOD_CHECK(ok());
    return *value_;
  }
  T& value() & {
    FASTOD_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    FASTOD_CHECK(ok());
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out rather than copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace fastod

#endif  // FASTOD_COMMON_STATUS_H_
