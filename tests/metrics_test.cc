#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::Fig2Database;
using testing::MakeFig2Database;

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(TimerTest, AccumulatesAndIgnoresNonPositive) {
  Timer t;
  t.AddSeconds(0.5);
  t.AddSeconds(0.25);
  t.AddSeconds(0.0);
  t.AddSeconds(-1.0);
  EXPECT_NEAR(t.seconds(), 0.75, 1e-6);
  t.Reset();
  EXPECT_EQ(t.seconds(), 0.0);
}

TEST(MetricsRegistryTest, ReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.counter("train.clauses_built");
  // Registering other keys must not invalidate earlier handles.
  for (int i = 0; i < 100; ++i) {
    reg.counter("key_" + std::to_string(i));
  }
  EXPECT_EQ(reg.counter("train.clauses_built"), a);
  a->Add(3);
  EXPECT_EQ(reg.counter("train.clauses_built")->value(), 3u);

  Timer* t = reg.timer("train.wall_seconds");
  EXPECT_EQ(reg.timer("train.wall_seconds"), t);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndIncludesUntouchedKeys) {
  MetricsRegistry reg;
  reg.counter("b.count")->Add(2);
  reg.counter("a.count");  // registered, never bumped
  reg.timer("c.phase_seconds")->AddSeconds(1.5);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  auto it = snap.begin();
  EXPECT_EQ(it->first, "a.count");
  EXPECT_DOUBLE_EQ(it->second, 0.0);
  ++it;
  EXPECT_EQ(it->first, "b.count");
  EXPECT_DOUBLE_EQ(it->second, 2.0);
  ++it;
  EXPECT_EQ(it->first, "c.phase_seconds");
  EXPECT_NEAR(it->second, 1.5, 1e-6);

  // Snapshot schema is stable call-over-call.
  EXPECT_EQ(reg.Snapshot(), snap);

  reg.Reset();
  for (const auto& [key, value] : reg.Snapshot()) {
    EXPECT_DOUBLE_EQ(value, 0.0) << key;
  }
}

TEST(ScopedMetricTimerTest, RecordsElapsedAndIsNullSafe) {
  MetricsRegistry reg;
  { ScopedMetricTimer t(&reg, "scope_seconds"); }
  EXPECT_EQ(reg.Snapshot().count("scope_seconds"), 1u);
  // A null registry must be a no-op (the disabled-observability path).
  { ScopedMetricTimer t(nullptr, "scope_seconds"); }
}

TEST(MergeSnapshotTest, SumsAndCreatesKeys) {
  MetricsSnapshot totals{{"a", 1.0}, {"b", 2.0}};
  MergeSnapshot({{"b", 3.0}, {"c", 4.0}}, &totals);
  EXPECT_DOUBLE_EQ(totals.at("a"), 1.0);
  EXPECT_DOUBLE_EQ(totals.at("b"), 5.0);
  EXPECT_DOUBLE_EQ(totals.at("c"), 4.0);
}

TEST(JsonNumberTest, IntegralAndSpecialValues) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(42.0), "42");
  EXPECT_EQ(JsonNumber(-3.0), "-3");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  std::string half = JsonNumber(0.5);
  EXPECT_NE(half.find('.'), std::string::npos) << half;
}

TEST(SnapshotJsonFieldsTest, RendersSpliceableFields) {
  EXPECT_EQ(SnapshotJsonFields({}), "");
  MetricsSnapshot snap{{"train.clauses_built", 3.0},
                       {"train.wall_seconds", 0.25}};
  EXPECT_EQ(SnapshotJsonFields(snap),
            "\"train.clauses_built\":3,\"train.wall_seconds\":0.25");
}

TEST(TouchStandardMetricsTest, RegistersPhaseTimersAndCacheCounters) {
  MetricsRegistry reg;
  TouchStandardTrainMetrics(&reg);
  MetricsSnapshot snap = reg.Snapshot();
  for (const char* key :
       {"train.wall_seconds", "train.phase.propagation_seconds",
        "train.phase.literal_search_seconds", "train.phase.lookahead_seconds",
        "train.phase.sampling_seconds", "train.phase.reestimation_seconds",
        "train.phase.join_seconds", "train.propagation.cache_hits",
        "train.propagation.cache_refreshes", "train.propagation.cache_misses",
        "train.propagation.peak_id_bytes", "train.propagation.pairs",
        "train.clauses_built", "train.literals_scored",
        "train.literals_accepted"}) {
    EXPECT_EQ(snap.count(key), 1u) << key;
  }
  TouchStandardPredictMetrics(&reg);
  snap = reg.Snapshot();
  for (const char* key : {"predict.wall_seconds", "predict.tuples",
                          "predict.clauses_evaluated",
                          "predict.default_fallbacks"}) {
    EXPECT_EQ(snap.count(key), 1u) << key;
  }
  // Null-safe.
  TouchStandardTrainMetrics(nullptr);
  TouchStandardPredictMetrics(nullptr);
}

// ------------------------------------------------- classifier coupling ----

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;
  return ids;
}

TEST(ClassifierMetricsTest, TrainAndPredictPopulateReports) {
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier model(opts);
  MetricsRegistry reg;
  model.set_metrics(&reg);
  ASSERT_TRUE(model.Train(f.db, AllIds(f.db)).ok());
  ASSERT_EQ(model.Predict(f.db, AllIds(f.db)),
            (std::vector<ClassId>{1, 1, 0, 0, 1}));
  model.set_metrics(nullptr);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_GT(snap.at("train.clauses_built"), 0.0);
  EXPECT_GT(snap.at("train.literals_scored"), 0.0);
  EXPECT_GT(snap.at("train.literals_accepted"), 0.0);
  EXPECT_GT(snap.at("train.wall_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(snap.at("predict.tuples"), 5.0);
  // Per-class clause counts sum to the total.
  EXPECT_DOUBLE_EQ(snap.at("train.clauses_built.class_0") +
                       snap.at("train.clauses_built.class_1"),
                   snap.at("train.clauses_built"));
}

TEST(ClassifierMetricsTest, InstrumentationDoesNotChangeTheModel) {
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier plain(opts), instrumented(opts);
  MetricsRegistry reg;
  instrumented.set_metrics(&reg);
  ASSERT_TRUE(plain.Train(f.db, AllIds(f.db)).ok());
  ASSERT_TRUE(instrumented.Train(f.db, AllIds(f.db)).ok());
  ASSERT_EQ(plain.clauses().size(), instrumented.clauses().size());
  EXPECT_EQ(plain.ToString(f.db), instrumented.ToString(f.db));
}

TEST(PredictCheckedTest, RejectsUntrainedAndOutOfRange) {
  Fig2Database f = MakeFig2Database();
  CrossMineClassifier model;
  StatusOr<std::vector<ClassId>> r = model.PredictBatchChecked(f.db, {0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier trained(opts);
  ASSERT_TRUE(trained.Train(f.db, AllIds(f.db)).ok());
  r = trained.PredictBatchChecked(f.db, {999});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);

  r = trained.PredictBatchChecked(f.db, AllIds(f.db));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, trained.Predict(f.db, AllIds(f.db)));
}

TEST(PredictCheckedTest, RejectsSchemaMismatch) {
  Fig2Database a = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(a.db, AllIds(a.db)).ok());

  // A structurally different database must be rejected by fingerprint.
  Database other;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  t.AddCategorical("x");
  other.AddRelation(std::move(t));
  other.SetTarget(0);
  Relation& rel = other.mutable_relation(0);
  for (int i = 0; i < 4; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    rel.SetInt(id, 1, i % 2);
  }
  other.SetLabels({0, 1, 0, 1}, 2);
  ASSERT_TRUE(other.Finalize().ok());

  StatusOr<std::vector<ClassId>> r = model.PredictBatchChecked(other, {0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("fingerprint"), std::string::npos);
}

}  // namespace
}  // namespace crossmine
