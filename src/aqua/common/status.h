#ifndef AQUA_COMMON_STATUS_H_
#define AQUA_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace aqua {

/// Machine-readable category of a `Status`.
///
/// The set is intentionally small: the library reports *why* an operation
/// failed only at the granularity a caller can act on. Detailed context goes
/// into the status message.
enum class StatusCode {
  kOk = 0,
  /// The caller passed an argument that violates the API contract
  /// (e.g., probabilities that do not sum to one).
  kInvalidArgument,
  /// A named entity (attribute, relation, mapping) does not exist.
  kNotFound,
  /// An index or size exceeds a structural bound.
  kOutOfRange,
  /// The requested operation exists in the problem space but has no
  /// implementation (e.g., a semantics combination with no known PTIME
  /// algorithm when exact algorithms were explicitly requested).
  kUnimplemented,
  /// The operation was refused because its cost would exceed a caller
  /// supplied budget (naive enumeration guards, step/memory budgets).
  kResourceExhausted,
  /// Invariant violation inside the library; always a bug.
  kInternal,
  /// The wall-clock deadline attached to the request expired before the
  /// operation completed.
  kDeadlineExceeded,
  /// The caller cooperatively cancelled the request mid-flight.
  kCancelled,
  /// A transient failure (pool spawn failure, shed request, injected
  /// fault): the operation did not happen but retrying it may succeed.
  kUnavailable,
};

/// Returns the canonical lowercase name of `code` (e.g. "invalid-argument").
std::string_view StatusCodeToString(StatusCode code);

/// Inverse of `StatusCodeToString`: resolves a canonical name back to its
/// code; `std::nullopt` when the name matches no code. (`std::optional`
/// rather than `Result<StatusCode>` because `Result` layers on top of this
/// header.)
std::optional<StatusCode> StatusCodeFromString(std::string_view name);

/// Result of an operation that can fail, in the RocksDB/Arrow style.
///
/// `Status` is cheap to copy in the OK case (no allocation) and carries a
/// code plus a human-readable message otherwise. Library functions never
/// throw; every fallible public API returns `Status` or `Result<T>`.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory for an OK status; reads better than `Status()` at call sites.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status Unimplemented(std::string message) {
    return Status(StatusCode::kUnimplemented, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }

  /// Human-readable failure context; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>".
  std::string ToString() const;

  /// Two statuses are equal iff code and message both match. Mostly useful
  /// in tests.
  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK `Status` out of the enclosing function.
#define AQUA_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::aqua::Status _aqua_status = (expr);        \
    if (!_aqua_status.ok()) return _aqua_status; \
  } while (false)

}  // namespace aqua

#endif  // AQUA_COMMON_STATUS_H_
