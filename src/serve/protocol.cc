#include "serve/protocol.h"

#include <climits>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace crossmine::serve {

namespace {

// ---------------------------------------------------------------------------
// JSON parsing: a strict, bounded recursive-descent parser. The protocol
// promises that arbitrary bytes yield a Status, never a crash, so every
// branch here fails closed: depth is capped, numbers must be finite, and
// trailing garbage is an error.

constexpr int kMaxDepth = 32;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipSpace();
    JsonValue v;
    Status st = ParseValue(&v, 0);
    if (!st.ok()) return st;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        return ParseLiteral("true", [out] {
          out->kind = JsonValue::Kind::kBool;
          out->boolean = true;
        });
      case 'f':
        return ParseLiteral("false", [out] {
          out->kind = JsonValue::Kind::kBool;
          out->boolean = false;
        });
      case 'n':
        return ParseLiteral("null",
                            [out] { out->kind = JsonValue::Kind::kNull; });
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Err(StrFormat("unexpected character '%c'", c));
    }
  }

  template <typename Fn>
  Status ParseLiteral(const char* word, Fn&& assign) {
    size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) {
      return Err(StrFormat("expected '%s'", word));
    }
    pos_ += len;
    assign();
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Err("malformed number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Err("malformed fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Err("malformed exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    double value = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &value) ||
        !std::isfinite(value)) {
      return Err("number out of range");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
            else return Err("bad hex digit in \\u escape");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Err("bad escape character");
      }
    }
    return Err("unterminated string");
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    // Basic Multilingual Plane only (surrogate pairs re-encode as two
    // 3-byte sequences — lossy but never unsafe; ids and verbs are ASCII).
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue elem;
      Status st = ParseValue(&elem, depth + 1);
      if (!st.ok()) return st;
      out->array.push_back(std::move(elem));
      SkipSpace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Err("expected ',' or ']' in array");
      SkipSpace();
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected string key in object");
      }
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after object key");
      SkipSpace();
      JsonValue value;
      st = ParseValue(&value, depth + 1);
      if (!st.ok()) return st;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Err("expected ',' or '}' in object");
      SkipSpace();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Request decoding helpers.

/// Extracts a non-negative integral number (a tuple id) from a JSON value.
Status ToTupleId(const JsonValue& v, TupleId* out) {
  if (v.kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("tuple id must be a number");
  }
  double d = v.number;
  if (d < 0 || d != std::floor(d) || d > static_cast<double>(UINT32_MAX)) {
    return Status::InvalidArgument(
        StrFormat("tuple id must be a non-negative 32-bit integer, got %g", d));
  }
  *out = static_cast<TupleId>(d);
  return Status::OK();
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

const char* StatusCodeWireName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDataLoss: return "DATA_LOSS";
  }
  return "INTERNAL";
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kPredict: return "predict";
    case Verb::kPredictBatch: return "predict_batch";
    case Verb::kExplain: return "explain";
    case Verb::kStats: return "stats";
    case Verb::kHealth: return "health";
  }
  return "unknown";
}

StatusOr<Request> ParseRequest(const std::string& line,
                               const ProtocolLimits& limits) {
  if (line.size() > limits.max_line_bytes) {
    return Status::InvalidArgument(
        StrFormat("request line of %zu bytes exceeds the %zu-byte limit",
                  line.size(), limits.max_line_bytes));
  }
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  Request req;

  const JsonValue* verb = root.Find("verb");
  if (verb == nullptr || verb->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("missing string field \"verb\"");
  }
  if (verb->string == "predict") {
    req.verb = Verb::kPredict;
  } else if (verb->string == "predict_batch") {
    req.verb = Verb::kPredictBatch;
  } else if (verb->string == "explain") {
    req.verb = Verb::kExplain;
  } else if (verb->string == "stats") {
    req.verb = Verb::kStats;
  } else if (verb->string == "health") {
    req.verb = Verb::kHealth;
  } else {
    return Status::InvalidArgument(StrFormat(
        "unknown verb \"%s\" (want predict, predict_batch, explain, stats "
        "or health)",
        JsonEscape(verb->string).c_str()));
  }

  if (req.verb == Verb::kPredict || req.verb == Verb::kExplain) {
    const JsonValue* id = root.Find("id");
    if (id == nullptr) {
      return Status::InvalidArgument(
          StrFormat("%s requires field \"id\"", VerbName(req.verb)));
    }
    TupleId t = 0;
    Status st = ToTupleId(*id, &t);
    if (!st.ok()) return st;
    req.ids.push_back(t);
  } else if (req.verb == Verb::kPredictBatch) {
    const JsonValue* ids = root.Find("ids");
    if (ids == nullptr || ids->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(
          "predict_batch requires array field \"ids\"");
    }
    if (ids->array.empty()) {
      return Status::InvalidArgument("\"ids\" must not be empty");
    }
    if (ids->array.size() > limits.max_batch_ids) {
      return Status::InvalidArgument(
          StrFormat("batch of %zu ids exceeds the per-request limit of %zu",
                    ids->array.size(), limits.max_batch_ids));
    }
    req.ids.reserve(ids->array.size());
    for (const JsonValue& v : ids->array) {
      TupleId t = 0;
      Status st = ToTupleId(v, &t);
      if (!st.ok()) return st;
      req.ids.push_back(t);
    }
  }

  if (const JsonValue* model = root.Find("model"); model != nullptr) {
    if (model->kind != JsonValue::Kind::kString) {
      return Status::InvalidArgument("\"model\" must be a string");
    }
    req.model = model->string;
  }

  if (const JsonValue* dl = root.Find("deadline_ms"); dl != nullptr) {
    // Capped like `--deadline-ms`: the server adds the deadline to a
    // nanosecond steady_clock time point, which overflows near 9.2e12 ms.
    if (dl->kind != JsonValue::Kind::kNumber || dl->number < 0 ||
        dl->number > INT_MAX || dl->number != std::floor(dl->number)) {
      return Status::InvalidArgument(
          "\"deadline_ms\" must be an integer in [0, 2147483647]");
    }
    req.deadline_ms = static_cast<int64_t>(dl->number);
  }

  if (const JsonValue* rid = root.Find("req_id"); rid != nullptr) {
    if (rid->kind == JsonValue::Kind::kString) {
      req.req_id_json = "\"" + JsonEscape(rid->string) + "\"";
    } else if (rid->kind == JsonValue::Kind::kNumber) {
      req.req_id_json = JsonNumber(rid->number);
    } else {
      return Status::InvalidArgument("\"req_id\" must be a string or number");
    }
  }

  return req;
}

// ---------------------------------------------------------------------------
// Response encoding. Responses are assembled by hand (printf-style) — the
// value space is numbers, pre-escaped strings and snapshot fields, so a
// JSON writer abstraction would be pure overhead on the per-request path.

namespace {

void AppendReqId(const std::string& req_id_json, std::string* out) {
  if (!req_id_json.empty()) {
    *out += ",\"req_id\":";
    *out += req_id_json;
  }
}

}  // namespace

std::string EncodeError(const Status& status, const std::string& req_id_json) {
  std::string out = "{\"ok\":false,\"code\":\"";
  out += StatusCodeWireName(status.code());
  out += "\",\"error\":\"";
  out += JsonEscape(status.message());
  out += "\"";
  AppendReqId(req_id_json, &out);
  out += "}";
  return out;
}

std::string EncodePrediction(ClassId prediction,
                             const std::string& req_id_json) {
  std::string out =
      StrFormat("{\"ok\":true,\"verb\":\"predict\",\"prediction\":%d",
                prediction);
  AppendReqId(req_id_json, &out);
  out += "}";
  return out;
}

std::string EncodePredictions(const std::vector<ClassId>& predictions,
                              const std::string& req_id_json) {
  std::string out = "{\"ok\":true,\"verb\":\"predict_batch\",\"predictions\":[";
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", predictions[i]);
  }
  out += "]";
  AppendReqId(req_id_json, &out);
  out += "}";
  return out;
}

std::string EncodeExplanation(ClassId prediction, int clause_index,
                              const std::string& clause_text,
                              const std::vector<int>& satisfied,
                              const std::string& req_id_json) {
  std::string out = StrFormat(
      "{\"ok\":true,\"verb\":\"explain\",\"prediction\":%d", prediction);
  if (clause_index >= 0) {
    out += StrFormat(",\"clause_index\":%d,\"clause\":\"%s\"", clause_index,
                     JsonEscape(clause_text).c_str());
  }
  out += ",\"satisfied\":[";
  for (size_t i = 0; i < satisfied.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%d", satisfied[i]);
  }
  out += "]";
  AppendReqId(req_id_json, &out);
  out += "}";
  return out;
}

std::string EncodeStats(const MetricsSnapshot& snapshot,
                        const std::string& req_id_json) {
  std::string out = "{\"ok\":true,\"verb\":\"stats\"";
  std::string fields = SnapshotJsonFields(snapshot);
  if (!fields.empty()) {
    out += ",";
    out += fields;
  }
  AppendReqId(req_id_json, &out);
  out += "}";
  return out;
}

std::string EncodeHealth(bool draining,
                         const std::vector<std::string>& models,
                         size_t queue_depth,
                         const std::string& req_id_json) {
  std::string out = "{\"ok\":true,\"verb\":\"health\",\"status\":\"";
  out += draining ? "draining" : "serving";
  out += "\",\"models\":[";
  for (size_t i = 0; i < models.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(models[i]) + "\"";
  }
  out += StrFormat("],\"queue_depth\":%zu", queue_depth);
  AppendReqId(req_id_json, &out);
  out += "}";
  return out;
}

}  // namespace crossmine::serve
