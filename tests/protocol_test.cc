// Protocol-codec coverage: the serving wire format must map every kind of
// bad input to a stable machine-readable error code — and never to a crash
// or a process exit. The codes asserted here (INVALID_ARGUMENT,
// OUT_OF_RANGE, DEADLINE_EXCEEDED, ...) are frozen protocol surface.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace crossmine::serve {
namespace {

// ---------------------------------------------------------------------------
// JSON parser

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_EQ(ParseJson("null")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(ParseJson("true")->boolean);
  EXPECT_FALSE(ParseJson("false")->boolean);
  EXPECT_DOUBLE_EQ(ParseJson("-12.5e2")->number, -1250.0);
  EXPECT_EQ(ParseJson("\"a\\n\\\"b\\u0041\"")->string, "a\n\"bA");
}

TEST(JsonParserTest, ParsesNestedStructures) {
  StatusOr<JsonValue> v = ParseJson(
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\", \"d\" : { } }");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject);
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[2].Find("b")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v->Find("c")->string, "x");
  EXPECT_EQ(v->Find("d")->object.size(), 0u);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",           "}",          "[1,",       "{\"a\":}",
      "{\"a\" 1}",  "{a:1}",       "nul",        "tru",       "01x",
      "\"unterminated", "\"bad\\q\"", "\"\\u00g1\"", "1 2",   "[1]]",
      "{\"a\":1,}", "--5",         "1.",         "1e",        "\"\x01\"",
  };
  for (const char* text : bad) {
    StatusOr<JsonValue> v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "should reject: " << text;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(JsonParserTest, RejectsExcessiveNestingWithoutCrashing) {
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += "[";
  EXPECT_FALSE(ParseJson(deep).ok());
  std::string shallow = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(ParseJson(shallow).ok());
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  // Round trip through the parser.
  EXPECT_EQ(ParseJson("\"" + JsonEscape("x\"\\\n\x02y") + "\"")->string,
            "x\"\\\n\x02y");
}

// ---------------------------------------------------------------------------
// Request decoding

TEST(ParseRequestTest, DecodesEveryVerb) {
  StatusOr<Request> r = ParseRequest("{\"verb\":\"predict\",\"id\":7}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kPredict);
  EXPECT_EQ(r->ids, std::vector<TupleId>{7});

  r = ParseRequest("{\"verb\":\"predict_batch\",\"ids\":[3,1,2]}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kPredictBatch);
  EXPECT_EQ(r->ids, (std::vector<TupleId>{3, 1, 2}));

  r = ParseRequest("{\"verb\":\"explain\",\"id\":0,\"model\":\"foil\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verb, Verb::kExplain);
  EXPECT_EQ(r->model, "foil");

  EXPECT_EQ(ParseRequest("{\"verb\":\"stats\"}")->verb, Verb::kStats);
  EXPECT_EQ(ParseRequest("{\"verb\":\"health\"}")->verb, Verb::kHealth);
}

TEST(ParseRequestTest, DecodesOptionalFields) {
  StatusOr<Request> r = ParseRequest(
      "{\"verb\":\"predict\",\"id\":1,\"deadline_ms\":250,"
      "\"req_id\":\"abc\"}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->deadline_ms, 250);
  EXPECT_EQ(r->req_id_json, "\"abc\"");

  r = ParseRequest("{\"verb\":\"health\",\"req_id\":42}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->req_id_json, "42");
}

TEST(ParseRequestTest, DeadlineAboveIntMaxIsInvalidArgument) {
  // The server adds the deadline to a nanosecond steady_clock time point;
  // past INT_MAX ms (the --deadline-ms cap) a value could overflow it, or
  // overflow the int64 conversion itself beyond 2^63.
  for (const char* dl : {"2147483648", "1e13", "1e19"}) {
    StatusOr<Request> r = ParseRequest(
        std::string("{\"verb\":\"predict\",\"id\":1,\"deadline_ms\":") +
        dl + "}");
    ASSERT_FALSE(r.ok()) << dl;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << dl;
    EXPECT_NE(r.status().message().find("deadline_ms"), std::string::npos);
  }
  StatusOr<Request> r = ParseRequest(
      "{\"verb\":\"predict\",\"id\":1,\"deadline_ms\":2147483647}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->deadline_ms, 2147483647);
}

TEST(ParseRequestTest, MalformedJsonIsInvalidArgument) {
  for (const char* line :
       {"", "not json", "{\"verb\":\"predict\",\"id\":}", "[1,2,3]", "42",
        "{\"verb\":\"predict\",\"id\":1}trailing"}) {
    StatusOr<Request> r = ParseRequest(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_STREQ(StatusCodeWireName(r.status().code()), "INVALID_ARGUMENT");
  }
}

TEST(ParseRequestTest, UnknownVerbIsInvalidArgument) {
  StatusOr<Request> r = ParseRequest("{\"verb\":\"classify\",\"id\":1}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unknown verb"), std::string::npos);
}

TEST(ParseRequestTest, MissingAndMistypedIdsRejected) {
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict\",\"id\":\"3\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict\",\"id\":-1}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict\",\"id\":1.5}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict\",\"id\":5e12}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict_batch\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"predict_batch\",\"ids\":[]}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"verb\":\"predict_batch\",\"ids\":[1,null]}").ok());
  EXPECT_FALSE(ParseRequest("{\"verb\":\"explain\"}").ok());
}

TEST(ParseRequestTest, OversizedBatchRejected) {
  ProtocolLimits limits;
  limits.max_batch_ids = 4;
  std::string line = "{\"verb\":\"predict_batch\",\"ids\":[1,2,3,4]}";
  EXPECT_TRUE(ParseRequest(line, limits).ok());
  line = "{\"verb\":\"predict_batch\",\"ids\":[1,2,3,4,5]}";
  StatusOr<Request> r = ParseRequest(line, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("exceeds"), std::string::npos);
}

TEST(ParseRequestTest, OversizedLineRejected) {
  ProtocolLimits limits;
  limits.max_line_bytes = 64;
  std::string line = "{\"verb\":\"predict\",\"id\":1,\"req_id\":\"" +
                     std::string(100, 'x') + "\"}";
  StatusOr<Request> r = ParseRequest(line, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Wire codes & encoders

TEST(WireNameTest, EveryStatusCodeHasAStableName) {
  EXPECT_STREQ(StatusCodeWireName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeWireName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeWireName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeWireName(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STREQ(StatusCodeWireName(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
  EXPECT_STREQ(StatusCodeWireName(StatusCode::kNotFound), "NOT_FOUND");
}

TEST(EncodeTest, ResponsesAreParseableSingleLineJson) {
  for (const std::string& line : {
           EncodeError(Status::OutOfRange("id 9 \"bad\""), "\"r1\""),
           EncodePrediction(2, ""),
           EncodePredictions({0, 1, 2}, "7"),
           EncodeExplanation(1, 3, "Loan(L, A+) :- amount > \"big\"", {3, 5},
                             ""),
           EncodeExplanation(0, -1, "", {}, "\"x\""),
           EncodeStats({{"serve.requests", 4}, {"predict.tuples", 9.5}}, ""),
           EncodeHealth(true, {"crossmine", "foil"}, 17, ""),
       }) {
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    StatusOr<JsonValue> v = ParseJson(line);
    ASSERT_TRUE(v.ok()) << line << " — " << v.status().ToString();
    EXPECT_EQ(v->kind, JsonValue::Kind::kObject) << line;
    ASSERT_NE(v->Find("ok"), nullptr) << line;
  }
}

TEST(EncodeTest, ErrorCarriesCodeMessageAndReqId) {
  StatusOr<JsonValue> v =
      ParseJson(EncodeError(Status::ResourceExhausted("queue full"), "\"q\""));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->Find("ok")->boolean);
  EXPECT_EQ(v->Find("code")->string, "RESOURCE_EXHAUSTED");
  EXPECT_EQ(v->Find("error")->string, "queue full");
  EXPECT_EQ(v->Find("req_id")->string, "q");
}

TEST(EncodeTest, HealthReportsDrainStateAndRoster) {
  StatusOr<JsonValue> v = ParseJson(EncodeHealth(false, {"m"}, 3, ""));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("status")->string, "serving");
  EXPECT_EQ(v->Find("models")->array[0].string, "m");
  EXPECT_DOUBLE_EQ(v->Find("queue_depth")->number, 3.0);
  v = ParseJson(EncodeHealth(true, {}, 0, ""));
  EXPECT_EQ(v->Find("status")->string, "draining");
}

}  // namespace
}  // namespace crossmine::serve
