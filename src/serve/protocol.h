#ifndef CROSSMINE_SERVE_PROTOCOL_H_
#define CROSSMINE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "relational/types.h"

namespace crossmine::serve {

/// Wire protocol of the prediction server: newline-delimited JSON, one
/// request object in, one response object out, in order, per connection.
///
/// Requests (`req_id` / `model` / `deadline_ms` optional on every verb):
/// ```
///   {"verb":"predict","id":17}
///   {"verb":"predict_batch","ids":[0,3,9],"deadline_ms":50}
///   {"verb":"explain","id":17,"model":"crossmine"}
///   {"verb":"stats"}
///   {"verb":"health","req_id":"h1"}
/// ```
/// Responses always carry `"ok"`; errors carry a *stable* `"code"` drawn
/// from `StatusCodeWireName` plus a human-readable `"error"`:
/// ```
///   {"ok":true,"verb":"predict","prediction":1}
///   {"ok":false,"code":"OUT_OF_RANGE","error":"tuple id 99 beyond ..."}
/// ```
/// The codec is total: any byte sequence parses to either a Request or a
/// descriptive non-OK Status — malformed input can never crash the server.

/// A parsed JSON value (the subset the protocol needs: full JSON minus
/// non-finite numbers). Exposed so tests and the load generator can parse
/// server responses with the same code that parses requests.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Strict one-value parser: leading/trailing whitespace allowed, anything
/// else after the value is an error. Nesting deeper than 32 levels is
/// rejected (bounded stack for adversarial input).
StatusOr<JsonValue> ParseJson(const std::string& text);

/// Escapes `s` for inclusion in a JSON string literal (quotes not added).
std::string JsonEscape(const std::string& s);

/// Stable machine-readable error codes for the wire (SCREAMING_SNAKE,
/// gRPC-style). These strings are frozen protocol surface: clients switch
/// on them, so renames are breaking changes.
const char* StatusCodeWireName(StatusCode code);

enum class Verb {
  kPredict,
  kPredictBatch,
  kExplain,
  kStats,
  kHealth,
};

const char* VerbName(Verb verb);

/// A decoded request, ready for admission.
struct Request {
  Verb verb = Verb::kHealth;
  /// Target tuple ids: exactly one for predict/explain, one or more for
  /// predict_batch, empty for stats/health.
  std::vector<TupleId> ids;
  /// Which roster model to use; empty selects the server default.
  std::string model;
  /// Per-request deadline override in milliseconds from admission, at most
  /// INT_MAX like `--deadline-ms`; 0 = use the server default (which may
  /// itself be "none").
  int64_t deadline_ms = 0;
  /// Opaque client tag echoed back verbatim (already re-encoded as a JSON
  /// token: a quoted string or a bare number). Empty = absent.
  std::string req_id_json;
};

/// Limits enforced at decode time, before a request costs anything.
struct ProtocolLimits {
  /// Max ids in one predict_batch (oversized batches are rejected with
  /// INVALID_ARGUMENT rather than monopolizing the worker pool).
  size_t max_batch_ids = 1024;
  /// Max request line length in bytes.
  size_t max_line_bytes = 1 << 20;
};

/// Decodes one request line. Returns INVALID_ARGUMENT for malformed JSON,
/// unknown verbs, missing/mistyped fields, negative or non-integral ids,
/// and batches larger than `limits.max_batch_ids`.
StatusOr<Request> ParseRequest(const std::string& line,
                               const ProtocolLimits& limits = {});

/// Response encoders. Every encoder returns a complete single-line JSON
/// object (no trailing newline).

/// `{"ok":false,...}` from a non-OK status, echoing `req_id_json` if any.
std::string EncodeError(const Status& status, const std::string& req_id_json);

/// `{"ok":true,"verb":"predict","prediction":c}`.
std::string EncodePrediction(ClassId prediction,
                             const std::string& req_id_json);

/// `{"ok":true,"verb":"predict_batch","predictions":[...]}`.
std::string EncodePredictions(const std::vector<ClassId>& predictions,
                              const std::string& req_id_json);

/// `{"ok":true,"verb":"explain","prediction":c,"clause_index":i,
///   "clause":"...","satisfied":[...]}`; clause fields are omitted when no
/// clause fired (`clause_index` < 0).
std::string EncodeExplanation(ClassId prediction, int clause_index,
                              const std::string& clause_text,
                              const std::vector<int>& satisfied,
                              const std::string& req_id_json);

/// `{"ok":true,"verb":"stats",<snapshot fields>}` in the
/// common/metrics.h SnapshotJsonFields convention.
std::string EncodeStats(const MetricsSnapshot& snapshot,
                        const std::string& req_id_json);

/// `{"ok":true,"verb":"health","status":...,"models":[...],
///   "queue_depth":n}`; `status` is "serving" or "draining".
std::string EncodeHealth(bool draining,
                         const std::vector<std::string>& models,
                         size_t queue_depth,
                         const std::string& req_id_json);

}  // namespace crossmine::serve

#endif  // CROSSMINE_SERVE_PROTOCOL_H_
