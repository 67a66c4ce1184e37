// Lightweight Status / Expected types for recoverable errors.
//
// The framework distinguishes programming errors (PSF_CHECK) from expected
// failures such as "no feasible deployment exists" or "parse error at line
// 12"; the latter travel through these types.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "util/assert.hpp"

namespace psf::util {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnsatisfiable,   // planner: no deployment satisfies the constraints
  kParseError,      // PSDL parser
  kCapacityExceeded,
  kPermissionDenied,
  kInternal,
  kUnavailable,     // transport: a message was lost; a retry may succeed
};

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kAlreadyExists: return "already_exists";
    case ErrorCode::kFailedPrecondition: return "failed_precondition";
    case ErrorCode::kUnsatisfiable: return "unsatisfiable";
    case ErrorCode::kParseError: return "parse_error";
    case ErrorCode::kCapacityExceeded: return "capacity_exceeded";
    case ErrorCode::kPermissionDenied: return "permission_denied";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  explicit operator bool() const { return is_ok(); }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (is_ok()) return "ok";
    return std::string(error_code_name(code_)) + ": " + message_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

inline Status invalid_argument(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status not_found(std::string msg) {
  return Status(ErrorCode::kNotFound, std::move(msg));
}
inline Status already_exists(std::string msg) {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Status failed_precondition(std::string msg) {
  return Status(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Status unsatisfiable(std::string msg) {
  return Status(ErrorCode::kUnsatisfiable, std::move(msg));
}
inline Status parse_error(std::string msg) {
  return Status(ErrorCode::kParseError, std::move(msg));
}
inline Status capacity_exceeded(std::string msg) {
  return Status(ErrorCode::kCapacityExceeded, std::move(msg));
}
inline Status permission_denied(std::string msg) {
  return Status(ErrorCode::kPermissionDenied, std::move(msg));
}
inline Status internal_error(std::string msg) {
  return Status(ErrorCode::kInternal, std::move(msg));
}
inline Status unavailable(std::string msg) {
  return Status(ErrorCode::kUnavailable, std::move(msg));
}

// Expected<T>: either a value or a Status. Minimal std::expected stand-in
// (the toolchain's libstdc++ predates <expected>).
template <typename T>
class Expected {
 public:
  Expected(T value) : data_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Expected(Status status) : data_(std::move(status)) {    // NOLINT(google-explicit-constructor)
    PSF_CHECK_MSG(!std::get<Status>(data_).is_ok(),
                  "Expected constructed from OK status");
  }

  bool has_value() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return has_value(); }

  const T& value() const& {
    PSF_CHECK_MSG(has_value(), status().to_string());
    return std::get<T>(data_);
  }
  T& value() & {
    PSF_CHECK_MSG(has_value(), status().to_string());
    return std::get<T>(data_);
  }
  T&& value() && {
    PSF_CHECK_MSG(has_value(), status().to_string());
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (has_value()) return Status::ok();
    return std::get<Status>(data_);
  }

  T value_or(T fallback) const {
    return has_value() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace psf::util
