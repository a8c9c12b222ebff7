// PredictionServer coverage through the in-process Submit API — the same
// queue/batch/deadline/drain machinery the TCP shell drives, minus sockets.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/foil.h"
#include "core/classifier.h"
#include "datagen/synthetic.h"
#include "serve/protocol.h"
#include "test_util.h"

namespace crossmine::serve {
namespace {

using crossmine::baselines::FoilClassifier;
using crossmine::testing::Fig2Database;
using crossmine::testing::MakeFig2Database;

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids;
  for (TupleId t = 0; t < db.target_relation().num_tuples(); ++t) {
    ids.push_back(t);
  }
  return ids;
}

std::unique_ptr<CrossMineClassifier> TrainedCrossMine(const Database& db) {
  auto model = std::make_unique<CrossMineClassifier>();
  CM_CHECK(model->Train(db, AllIds(db)).ok());
  return model;
}

// Parses a response line and returns its JSON object (fails the test on
// malformed output — every server response must be valid JSON).
JsonValue Parsed(const std::string& line) {
  StatusOr<JsonValue> v = ParseJson(line);
  EXPECT_TRUE(v.ok()) << line;
  return v.ok() ? *std::move(v) : JsonValue{};
}

bool IsOk(const std::string& line) {
  const JsonValue v = Parsed(line);
  const JsonValue* ok = v.Find("ok");
  return ok != nullptr && ok->kind == JsonValue::Kind::kBool && ok->boolean;
}

std::string ErrorCode(const std::string& line) {
  const JsonValue v = Parsed(line);
  const JsonValue* code = v.Find("code");
  return code == nullptr ? "" : code->string;
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : fig_(MakeFig2Database()) {}

  /// A started server with one trained CrossMine model named "crossmine".
  std::unique_ptr<PredictionServer> StartedServer(ServerOptions options = {}) {
    auto server = std::make_unique<PredictionServer>(&fig_.db, options);
    CM_CHECK(
        server->AddModel("crossmine", TrainedCrossMine(fig_.db)).ok());
    CM_CHECK(server->Start().ok());
    return server;
  }

  Fig2Database fig_;
};

// ---------------------------------------------------------------------------
// Happy paths

TEST_F(ServeTest, PredictMatchesOfflineModel) {
  auto model = TrainedCrossMine(fig_.db);
  std::vector<ClassId> expected = model->Predict(fig_.db, AllIds(fig_.db));

  auto server = StartedServer();
  for (TupleId t = 0; t < expected.size(); ++t) {
    std::string line = server->Submit("{\"verb\":\"predict\",\"id\":" +
                                      std::to_string(t) + "}");
    ASSERT_TRUE(IsOk(line)) << line;
    EXPECT_DOUBLE_EQ(Parsed(line).Find("prediction")->number,
                     static_cast<double>(expected[t]))
        << line;
  }
  server->Drain();
}

TEST_F(ServeTest, PredictBatchPreservesOrder) {
  auto model = TrainedCrossMine(fig_.db);
  std::vector<TupleId> ids = {4, 0, 2};
  std::vector<ClassId> expected = model->Predict(fig_.db, ids);

  auto server = StartedServer();
  std::string line =
      server->Submit("{\"verb\":\"predict_batch\",\"ids\":[4,0,2]}");
  ASSERT_TRUE(IsOk(line)) << line;
  const JsonValue v = Parsed(line);
  const JsonValue* preds = v.Find("predictions");
  ASSERT_NE(preds, nullptr);
  ASSERT_EQ(preds->array.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(preds->array[i].number,
                     static_cast<double>(expected[i]));
  }
}

TEST_F(ServeTest, ExplainReturnsClauseDetail) {
  auto server = StartedServer();
  std::string line = server->Submit("{\"verb\":\"explain\",\"id\":0}");
  ASSERT_TRUE(IsOk(line)) << line;
  const JsonValue v = Parsed(line);
  ASSERT_NE(v.Find("prediction"), nullptr);
  ASSERT_NE(v.Find("satisfied"), nullptr);
  // Clause fields are present exactly when a clause fired.
  const JsonValue* ci = v.Find("clause_index");
  if (ci != nullptr) {
    EXPECT_GE(ci->number, 0.0);
    ASSERT_NE(v.Find("clause"), nullptr);
    EXPECT_FALSE(v.Find("clause")->string.empty());
  } else {
    EXPECT_EQ(v.Find("clause"), nullptr);
  }
  // At least one of the five Fig. 2 tuples must decide via a clause.
  bool any_clause = false;
  for (TupleId t = 0; t < 5; ++t) {
    const JsonValue e = Parsed(server->Submit(
        "{\"verb\":\"explain\",\"id\":" + std::to_string(t) + "}"));
    if (e.Find("clause_index") != nullptr) any_clause = true;
  }
  EXPECT_TRUE(any_clause);
}

TEST_F(ServeTest, ReqIdIsEchoedVerbatim) {
  auto server = StartedServer();
  std::string line =
      server->Submit("{\"verb\":\"predict\",\"id\":1,\"req_id\":\"tag-9\"}");
  EXPECT_EQ(Parsed(line).Find("req_id")->string, "tag-9");
  line = server->Submit("{\"verb\":\"health\",\"req_id\":31}");
  EXPECT_DOUBLE_EQ(Parsed(line).Find("req_id")->number, 31.0);
}

TEST_F(ServeTest, StatsAndHealthAnswerInline) {
  auto server = StartedServer();
  (void)server->Submit("{\"verb\":\"predict\",\"id\":0}");

  std::string stats = server->Submit("{\"verb\":\"stats\"}");
  ASSERT_TRUE(IsOk(stats)) << stats;
  const JsonValue sv = Parsed(stats);
  EXPECT_DOUBLE_EQ(sv.Find("serve.requests.predict")->number, 1.0);
  EXPECT_GE(sv.Find("serve.responses_ok")->number, 1.0);
  ASSERT_NE(sv.Find("serve.queue_depth"), nullptr);

  std::string health = server->Submit("{\"verb\":\"health\"}");
  ASSERT_TRUE(IsOk(health)) << health;
  const JsonValue hv = Parsed(health);
  EXPECT_EQ(hv.Find("status")->string, "serving");
  ASSERT_EQ(hv.Find("models")->array.size(), 1u);
  EXPECT_EQ(hv.Find("models")->array[0].string, "crossmine");
}

// ---------------------------------------------------------------------------
// Error mapping: every bad input answers with a stable code, no crash.

TEST_F(ServeTest, MalformedAndUnknownRequestsAnswerInvalidArgument) {
  auto server = StartedServer();
  for (const char* line :
       {"", "garbage", "{\"verb\":\"predict\"}", "{\"verb\":\"nope\"}",
        "{\"verb\":\"predict\",\"id\":-3}", "[]"}) {
    std::string resp = server->Submit(line);
    EXPECT_FALSE(IsOk(resp)) << resp;
    EXPECT_EQ(ErrorCode(resp), "INVALID_ARGUMENT") << resp;
  }
  // The server is still healthy afterwards.
  EXPECT_TRUE(IsOk(server->Submit("{\"verb\":\"predict\",\"id\":0}")));
}

TEST_F(ServeTest, OutOfRangeTupleIdIsOutOfRange) {
  auto server = StartedServer();
  std::string resp = server->Submit("{\"verb\":\"predict\",\"id\":99}");
  EXPECT_EQ(ErrorCode(resp), "OUT_OF_RANGE") << resp;
  resp = server->Submit("{\"verb\":\"predict_batch\",\"ids\":[0,99]}");
  EXPECT_EQ(ErrorCode(resp), "OUT_OF_RANGE") << resp;
  resp = server->Submit("{\"verb\":\"explain\",\"id\":99}");
  EXPECT_EQ(ErrorCode(resp), "OUT_OF_RANGE") << resp;
}

TEST_F(ServeTest, UnknownModelIsNotFound) {
  auto server = StartedServer();
  std::string resp =
      server->Submit("{\"verb\":\"predict\",\"id\":0,\"model\":\"mystery\"}");
  EXPECT_EQ(ErrorCode(resp), "NOT_FOUND") << resp;
}

TEST_F(ServeTest, OversizedBatchIsRejectedAtAdmission) {
  ServerOptions options;
  options.limits.max_batch_ids = 2;
  auto server = StartedServer(options);
  std::string resp =
      server->Submit("{\"verb\":\"predict_batch\",\"ids\":[0,1,2]}");
  EXPECT_EQ(ErrorCode(resp), "INVALID_ARGUMENT") << resp;
  EXPECT_TRUE(
      IsOk(server->Submit("{\"verb\":\"predict_batch\",\"ids\":[0,1]}")));
}

TEST_F(ServeTest, ExplainOnNonCrossMineModelIsFailedPrecondition) {
  auto server = std::make_unique<PredictionServer>(&fig_.db, ServerOptions{});
  auto foil = std::make_unique<FoilClassifier>();
  CM_CHECK(foil->Train(fig_.db, AllIds(fig_.db)).ok());
  CM_CHECK(server->AddModel("foil", std::move(foil)).ok());
  CM_CHECK(server->Start().ok());

  // predict works through the common interface...
  EXPECT_TRUE(IsOk(server->Submit("{\"verb\":\"predict\",\"id\":0}")));
  // ...but clause-level explanations only exist for CrossMine.
  std::string resp = server->Submit("{\"verb\":\"explain\",\"id\":0}");
  EXPECT_EQ(ErrorCode(resp), "FAILED_PRECONDITION") << resp;
}

// ---------------------------------------------------------------------------
// Registration and life-cycle contract

TEST_F(ServeTest, AddModelValidatesOnceAndRejectsBadRosters) {
  PredictionServer server(&fig_.db, ServerOptions{});
  // Untrained model cannot serve: ValidateForPredict fails at registration,
  // not at the first request.
  EXPECT_EQ(
      server.AddModel("raw", std::make_unique<CrossMineClassifier>()).code(),
      StatusCode::kFailedPrecondition);

  EXPECT_TRUE(server.AddModel("m", TrainedCrossMine(fig_.db)).ok());
  EXPECT_EQ(server.AddModel("m", TrainedCrossMine(fig_.db)).code(),
            StatusCode::kAlreadyExists);

  EXPECT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // double Start
  EXPECT_FALSE(server.AddModel("late", TrainedCrossMine(fig_.db)).ok());
  server.Drain();
}

TEST_F(ServeTest, StartWithoutModelsFails) {
  PredictionServer server(&fig_.db, ServerOptions{});
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeTest, NamedModelSelectsFromRoster) {
  auto server = std::make_unique<PredictionServer>(&fig_.db, ServerOptions{});
  CM_CHECK(server->AddModel("crossmine", TrainedCrossMine(fig_.db)).ok());
  auto foil = std::make_unique<FoilClassifier>();
  CM_CHECK(foil->Train(fig_.db, AllIds(fig_.db)).ok());
  CM_CHECK(server->AddModel("foil", std::move(foil)).ok());
  CM_CHECK(server->Start().ok());

  EXPECT_EQ(server->model_names(),
            (std::vector<std::string>{"crossmine", "foil"}));
  EXPECT_TRUE(IsOk(
      server->Submit("{\"verb\":\"predict\",\"id\":0,\"model\":\"foil\"}")));
  std::string health = server->Submit("{\"verb\":\"health\"}");
  EXPECT_EQ(Parsed(health).Find("models")->array.size(), 2u);
}

// ---------------------------------------------------------------------------
// Queueing: shed, deadlines, drain

TEST_F(ServeTest, FullQueueShedsWithResourceExhausted) {
  ServerOptions options;
  options.max_queue = 2;
  // Not started: admitted requests sit in the queue, making the overflow
  // deterministic.
  PredictionServer server(&fig_.db, options);
  CM_CHECK(server.AddModel("crossmine", TrainedCrossMine(fig_.db)).ok());

  std::future<std::string> a =
      server.SubmitAsync("{\"verb\":\"predict\",\"id\":0}");
  std::future<std::string> b =
      server.SubmitAsync("{\"verb\":\"predict\",\"id\":1}");
  EXPECT_EQ(server.queue_depth(), 2u);

  // Queue is full: the third request is shed immediately.
  std::future<std::string> c =
      server.SubmitAsync("{\"verb\":\"predict\",\"id\":2}");
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  std::string shed = c.get();
  EXPECT_EQ(ErrorCode(shed), "RESOURCE_EXHAUSTED") << shed;

  // Inline verbs bypass the queue and still answer while it is full.
  std::future<std::string> h =
      server.SubmitAsync("{\"verb\":\"health\"}");
  ASSERT_EQ(h.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(IsOk(h.get()));

  // Admitted work still completes once the dispatcher runs.
  CM_CHECK(server.Start().ok());
  EXPECT_TRUE(IsOk(a.get()));
  EXPECT_TRUE(IsOk(b.get()));
  server.Drain();

  const MetricsSnapshot snap = server.StatsSnapshot();
  EXPECT_DOUBLE_EQ(snap.at("serve.sheds"), 1.0);
}

TEST_F(ServeTest, ExpiredDeadlineAnswersDeadlineExceededWithoutPredicting) {
  PredictionServer server(&fig_.db, ServerOptions{});
  CM_CHECK(server.AddModel("crossmine", TrainedCrossMine(fig_.db)).ok());

  std::future<std::string> f = server.SubmitAsync(
      "{\"verb\":\"predict\",\"id\":0,\"deadline_ms\":1}");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  CM_CHECK(server.Start().ok());

  std::string resp = f.get();
  EXPECT_EQ(ErrorCode(resp), "DEADLINE_EXCEEDED") << resp;
  server.Drain();
  EXPECT_DOUBLE_EQ(server.StatsSnapshot().at("serve.deadline_exceeded"), 1.0);
}

TEST_F(ServeTest, LargestDeadlineAnswersOk) {
  // INT_MAX ms from admission fits the steady_clock time point, so the
  // request is answered rather than expiring on an overflowed deadline.
  auto server = StartedServer();
  std::string resp = server
                         ->SubmitAsync(
                             "{\"verb\":\"predict\",\"id\":0,"
                             "\"deadline_ms\":2147483647}")
                         .get();
  EXPECT_TRUE(IsOk(resp)) << resp;
  server->Drain();
  EXPECT_DOUBLE_EQ(server->StatsSnapshot().at("serve.deadline_exceeded"), 0.0);
}

TEST_F(ServeTest, DefaultDeadlineAppliesWhenRequestHasNone) {
  ServerOptions options;
  options.default_deadline_ms = 1;
  PredictionServer server(&fig_.db, options);
  CM_CHECK(server.AddModel("crossmine", TrainedCrossMine(fig_.db)).ok());
  std::future<std::string> f =
      server.SubmitAsync("{\"verb\":\"predict\",\"id\":0}");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  CM_CHECK(server.Start().ok());
  EXPECT_EQ(ErrorCode(f.get()), "DEADLINE_EXCEEDED");
  server.Drain();
}

TEST_F(ServeTest, DrainRejectsNewWorkButFinishesAdmitted) {
  auto server = StartedServer();
  std::future<std::string> admitted =
      server->SubmitAsync("{\"verb\":\"predict\",\"id\":0}");
  server->Drain();
  EXPECT_TRUE(IsOk(admitted.get()));

  std::string late = server->Submit("{\"verb\":\"predict\",\"id\":1}");
  EXPECT_EQ(ErrorCode(late), "UNAVAILABLE") << late;

  // health still answers, reporting the drain.
  std::string health = server->Submit("{\"verb\":\"health\"}");
  EXPECT_EQ(Parsed(health).Find("status")->string, "draining");

  server->Drain();  // idempotent
}

TEST_F(ServeTest, DrainBeforeStartResolvesQueuedRequests) {
  PredictionServer server(&fig_.db, ServerOptions{});
  CM_CHECK(server.AddModel("crossmine", TrainedCrossMine(fig_.db)).ok());
  std::future<std::string> f =
      server.SubmitAsync("{\"verb\":\"predict\",\"id\":0}");
  server.Drain();  // never started: queued work must not hang
  EXPECT_EQ(ErrorCode(f.get()), "UNAVAILABLE");
}

TEST_F(ServeTest, DestructorDrains) {
  std::future<std::string> f;
  {
    auto server = StartedServer();
    f = server->SubmitAsync("{\"verb\":\"predict\",\"id\":0}");
  }
  EXPECT_TRUE(IsOk(f.get()));
}

// ---------------------------------------------------------------------------
// Determinism: responses are a pure function of (model, db, request).

TEST_F(ServeTest, ResponsesIdenticalAcrossThreadAndBatchConfigurations) {
  std::vector<std::string> requests;
  for (TupleId t = 0; t < 5; ++t) {
    requests.push_back("{\"verb\":\"predict\",\"id\":" + std::to_string(t) +
                       "}");
    requests.push_back("{\"verb\":\"explain\",\"id\":" + std::to_string(t) +
                       "}");
  }
  requests.push_back("{\"verb\":\"predict_batch\",\"ids\":[0,1,2,3,4]}");

  auto run = [&](int threads, int batch_size) {
    ServerOptions options;
    options.threads = threads;
    options.batch_size = batch_size;
    auto server = StartedServer(options);
    // Submit everything concurrently so micro-batches actually form.
    std::vector<std::future<std::string>> futures;
    for (const std::string& r : requests) {
      futures.push_back(server->SubmitAsync(r));
    }
    std::vector<std::string> responses;
    for (std::future<std::string>& f : futures) responses.push_back(f.get());
    server->Drain();
    return responses;
  };

  const std::vector<std::string> base = run(1, 1);
  for (const std::string& line : base) ASSERT_TRUE(IsOk(line)) << line;
  EXPECT_EQ(run(4, 8), base);
  EXPECT_EQ(run(2, 3), base);
}

TEST(ServeCountersTest, PredictCountersIdenticalAcrossServeThreads) {
  // The predict.* work counters are inert: how requests spread over
  // server threads and micro-batches never changes their totals. (A
  // synthetic database, so the model's clauses actually hop.)
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 100;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  std::vector<std::string> requests;
  for (TupleId t = 0; t < 40; ++t) {
    requests.push_back("{\"verb\":\"predict\",\"id\":" +
                       std::to_string(t) + "}");
    if (t % 8 == 0) {
      requests.push_back("{\"verb\":\"explain\",\"id\":" +
                         std::to_string(t) + "}");
      requests.push_back(
          "{\"verb\":\"predict_batch\",\"ids\":[9,1,4,1]}");
    }
  }
  auto counters = [&](int threads) {
    ServerOptions options;
    options.threads = threads;
    options.batch_size = 8;
    PredictionServer server(&*db, options);
    CM_CHECK(server.AddModel("crossmine", TrainedCrossMine(*db)).ok());
    CM_CHECK(server.Start().ok());
    std::vector<std::future<std::string>> futures;
    for (const std::string& r : requests) {
      futures.push_back(server.SubmitAsync(r));
    }
    for (std::future<std::string>& f : futures) EXPECT_TRUE(IsOk(f.get()));
    server.Drain();
    const MetricsSnapshot snap = server.StatsSnapshot();
    std::vector<double> out;
    for (const char* key :
         {"predict.propagated_pairs", "predict.tuples",
          "predict.clauses_evaluated", "predict.default_fallbacks"}) {
      out.push_back(snap.at(key));
    }
    return out;
  };
  const std::vector<double> one = counters(1);
  EXPECT_GT(one[0], 0.0);
  EXPECT_EQ(counters(4), one);
}

TEST_F(ServeTest, MixedLoadUnderConcurrencyAnswersEveryRequest) {
  ServerOptions options;
  options.threads = 2;
  options.batch_size = 4;
  options.max_queue = 1024;
  auto server = StartedServer(options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  std::atomic<int> bad{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        int id = (c + i) % 5;
        std::string line;
        if (i % 7 == 3) {
          line = server->Submit("{\"verb\":\"stats\"}");
        } else if (i % 5 == 2) {
          line = server->Submit("{\"verb\":\"explain\",\"id\":" +
                                std::to_string(id) + "}");
        } else {
          line = server->Submit("{\"verb\":\"predict\",\"id\":" +
                                std::to_string(id) + "}");
        }
        if (!IsOk(line)) bad.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);

  server->Drain();
  const MetricsSnapshot snap = server->StatsSnapshot();
  EXPECT_DOUBLE_EQ(snap.at("serve.requests"),
                   static_cast<double>(kClients * kPerClient));
  EXPECT_DOUBLE_EQ(snap.at("serve.errors"), 0.0);
  EXPECT_GT(snap.at("serve.batches"), 0.0);
  EXPECT_GE(snap.at("serve.latency_p99_ms"), snap.at("serve.latency_p50_ms"));
}

// ---------------------------------------------------------------------------
// Latency histogram

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndBucketAccurate) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);

  for (int i = 0; i < 90; ++i) h.Record(1e-3);   // ~1 ms
  for (int i = 0; i < 10; ++i) h.Record(100e-3); // ~100 ms
  EXPECT_EQ(h.count(), 100u);

  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 0.25e-3);
  EXPECT_LT(p50, 4e-3);    // within its log2 bucket of 1 ms
  EXPECT_GT(p99, 25e-3);
  EXPECT_LT(p99, 400e-3);  // within its log2 bucket of 100 ms
  EXPECT_LE(p50, p99);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace crossmine::serve
