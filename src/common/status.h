// Status / Result<T>: value-based error handling (Arrow / RocksDB idiom).
//
// Validation failures in a blockchain are ordinary data ("this transaction is
// invalid"), not exceptional control flow, so every fallible operation in
// this library returns a Status or a Result<T> instead of throwing.

#ifndef AC3_COMMON_STATUS_H_
#define AC3_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace ac3 {

/// Machine-readable category of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed a malformed value.
  kNotFound,          ///< Referenced entity does not exist.
  kAlreadyExists,     ///< Uniqueness constraint violated (e.g. double register).
  kFailedPrecondition,///< `requires(...)` guard of a contract/protocol failed.
  kVerificationFailed,///< A signature, proof-of-work, or evidence check failed.
  kOutOfRange,        ///< Index / depth / time out of the valid range.
  kUnavailable,       ///< Target node is crashed or partitioned away.
  kInternal,          ///< Invariant breach inside the library (a bug).
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status VerificationFailed(std::string msg) {
    return Status(StatusCode::kVerificationFailed, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result is a programming error (asserts in debug builds).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;             // OK iff value_ holds a value.
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define AC3_RETURN_IF_ERROR(expr)              \
  do {                                         \
    ::ac3::Status _ac3_status = (expr);        \
    if (!_ac3_status.ok()) return _ac3_status; \
  } while (0)

#define AC3_CONCAT_IMPL(a, b) a##b
#define AC3_CONCAT(a, b) AC3_CONCAT_IMPL(a, b)

#define AC3_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value();

/// Evaluates a Result expression; on error returns its Status, otherwise
/// moves the value into `lhs` (which may be a declaration).
#define AC3_ASSIGN_OR_RETURN(lhs, expr) \
  AC3_ASSIGN_OR_RETURN_IMPL(AC3_CONCAT(_ac3_result_, __LINE__), lhs, expr)

}  // namespace ac3

#endif  // AC3_COMMON_STATUS_H_
