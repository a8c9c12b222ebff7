#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/stopwatch.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace crossmine::eval {
namespace {

using crossmine::testing::Fig2Database;
using crossmine::testing::MakeFig2Database;

// ----------------------------------------------------------- metrics ------

TEST(MetricsTest, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1}, {1, 0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1, 0}, {1, 1, 1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, AccuracySizeMismatchAborts) {
  EXPECT_DEATH(Accuracy({1}, {1, 0}), "");
}

TEST(ConfusionMatrixTest, CountsAndAccuracy) {
  ConfusionMatrix m(2);
  m.Add(1, 1);
  m.Add(1, 1);
  m.Add(1, 0);
  m.Add(0, 0);
  EXPECT_EQ(m.total(), 4u);
  EXPECT_EQ(m.count(1, 1), 2u);
  EXPECT_EQ(m.count(1, 0), 1u);
  EXPECT_EQ(m.count(0, 0), 1u);
  EXPECT_DOUBLE_EQ(m.Accuracy(), 0.75);
}

TEST(ConfusionMatrixTest, PrecisionRecall) {
  ConfusionMatrix m(2);
  // 3 true positives, 1 false positive, 2 false negatives, 4 true negatives
  for (int i = 0; i < 3; ++i) m.Add(1, 1);
  m.Add(0, 1);
  for (int i = 0; i < 2; ++i) m.Add(1, 0);
  for (int i = 0; i < 4; ++i) m.Add(0, 0);
  EXPECT_DOUBLE_EQ(m.Precision(1), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(m.Recall(1), 3.0 / 5.0);
}

TEST(ConfusionMatrixTest, ZeroDenominatorsGiveZero) {
  ConfusionMatrix m(3);
  m.Add(0, 0);
  EXPECT_DOUBLE_EQ(m.Precision(2), 0.0);
  EXPECT_DOUBLE_EQ(m.Recall(2), 0.0);
}

TEST(ConfusionMatrixTest, ToStringContainsCounts) {
  ConfusionMatrix m(2);
  m.Add(0, 1);
  std::string s = m.ToString();
  EXPECT_NE(s.find("true\\pred"), std::string::npos);
}

// ------------------------------------------------------------- folds ------

TEST(StratifiedKFoldTest, PartitionsAllTuples) {
  Fig2Database f = MakeFig2Database();
  std::vector<Fold> folds = StratifiedKFold(f.db, 5, 1);
  ASSERT_EQ(folds.size(), 5u);
  std::set<TupleId> all_test;
  for (const Fold& fold : folds) {
    for (TupleId t : fold.test) {
      EXPECT_TRUE(all_test.insert(t).second) << "duplicate test id";
    }
    // train ∪ test = everything, disjoint.
    EXPECT_EQ(fold.train.size() + fold.test.size(), 5u);
    std::set<TupleId> train(fold.train.begin(), fold.train.end());
    for (TupleId t : fold.test) EXPECT_EQ(train.count(t), 0u);
  }
  EXPECT_EQ(all_test.size(), 5u);
}

TEST(StratifiedKFoldTest, StratificationPreservesClassMix) {
  // 100 tuples, 20% positive: every 10-fold test bucket gets 2 positives.
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  db.AddRelation(std::move(t));
  db.SetTarget(0);
  Relation& rel = db.mutable_relation(0);
  std::vector<ClassId> labels;
  for (int i = 0; i < 100; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    labels.push_back(i < 20 ? 1 : 0);
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  std::vector<Fold> folds = StratifiedKFold(db, 10, 7);
  for (const Fold& fold : folds) {
    int pos = 0;
    for (TupleId id : fold.test) pos += (db.labels()[id] == 1);
    EXPECT_EQ(pos, 2);
    EXPECT_EQ(fold.test.size(), 10u);
  }
}

TEST(StratifiedKFoldTest, DeterministicInSeed) {
  Fig2Database f = MakeFig2Database();
  std::vector<Fold> a = StratifiedKFold(f.db, 3, 5);
  std::vector<Fold> b = StratifiedKFold(f.db, 3, 5);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].test, b[i].test);
    EXPECT_EQ(a[i].train, b[i].train);
  }
}

// ---------------------------------------------------- cross-validation ----

/// Stub classifier predicting a constant class; counts Train calls.
class ConstantClassifier : public RelationalClassifier {
 public:
  explicit ConstantClassifier(ClassId cls, int* train_calls = nullptr)
      : cls_(cls), train_calls_(train_calls) {}
  Status Train(const Database& db, const std::vector<TupleId>&) override {
    if (train_calls_ != nullptr) ++*train_calls_;
    // Part of the Train contract: record the schema so PredictBatchChecked
    // accepts this (db, model) pair.
    trained_fingerprint_ = SchemaFingerprint(db);
    return Status::OK();
  }
  std::vector<ClassId> Predict(
      const Database&, const std::vector<TupleId>& ids) const override {
    return std::vector<ClassId>(ids.size(), cls_);
  }
  const char* name() const override { return "Constant"; }

 private:
  ClassId cls_;
  int* train_calls_;
};

TEST(CrossValidateTest, RunsAllFoldsAndAveragesAccuracy) {
  Fig2Database f = MakeFig2Database();  // 3 positive, 2 negative
  int train_calls = 0;
  CrossValResult result = CrossValidate(
      f.db,
      [&] { return std::make_unique<ConstantClassifier>(1, &train_calls); },
      5, 1);
  EXPECT_EQ(result.folds.size(), 5u);
  EXPECT_EQ(train_calls, 5);
  EXPECT_FALSE(result.truncated);
  // Constant-1 accuracy averaged over single-tuple folds = 3/5.
  EXPECT_NEAR(result.mean_accuracy, 0.6, 1e-9);
}

TEST(CrossValidateTest, FoldTimeLimitTruncates) {
  Fig2Database f = MakeFig2Database();
  // A classifier that burns measurable time.
  class SlowClassifier : public ConstantClassifier {
   public:
    SlowClassifier() : ConstantClassifier(1) {}
    Status Train(const Database& db,
                 const std::vector<TupleId>& ids) override {
      crossmine::Stopwatch w;
      while (w.ElapsedSeconds() < 0.02) {
      }
      return ConstantClassifier::Train(db, ids);
    }
  };
  CrossValResult result = CrossValidate(
      f.db, [] { return std::make_unique<SlowClassifier>(); }, 5, 1,
      /*fold_time_limit_seconds=*/0.01);
  EXPECT_EQ(result.folds.size(), 1u);
  EXPECT_TRUE(result.truncated);
}

TEST(CrossValidateTest, CollectReportsAggregatesPerFoldMetrics) {
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  auto factory = [&] { return std::make_unique<CrossMineClassifier>(opts); };
  CrossValResult result = CrossValidate(f.db, factory, 5, 1,
                                        /*fold_time_limit_seconds=*/0.0,
                                        /*collect_reports=*/true);
  ASSERT_EQ(result.folds.size(), 5u);
  double wall_sum = 0.0;
  for (const FoldResult& fr : result.folds) {
    ASSERT_FALSE(fr.train_report.empty());
    ASSERT_FALSE(fr.predict_report.empty());
    EXPECT_EQ(fr.train_report.metrics.count("train.phase.propagation_seconds"),
              1u);
    EXPECT_EQ(fr.train_report.metrics.count("train.clauses_built"), 1u);
    EXPECT_EQ(fr.predict_report.metrics.count("predict.tuples"), 1u);
    wall_sum += fr.train_report.metrics.at("train.wall_seconds");
  }
  EXPECT_NEAR(result.train_totals.at("train.wall_seconds"), wall_sum, 1e-9);
  // Every fold predicts its one test tuple.
  EXPECT_DOUBLE_EQ(result.predict_totals.at("predict.tuples"), 5.0);

  // Off by default, and attaching the instrumentation never changes what
  // the folds learn.
  CrossValResult plain = CrossValidate(f.db, factory, 5, 1);
  EXPECT_TRUE(plain.folds[0].train_report.empty());
  EXPECT_TRUE(plain.train_totals.empty());
  EXPECT_DOUBLE_EQ(plain.mean_accuracy, result.mean_accuracy);
}

TEST(CrossValidateTest, RecordsTimings) {
  Fig2Database f = MakeFig2Database();
  CrossValResult result = CrossValidate(
      f.db, [] { return std::make_unique<ConstantClassifier>(0); }, 2, 1);
  for (const FoldResult& fr : result.folds) {
    EXPECT_GE(fr.train_seconds, 0.0);
    EXPECT_GE(fr.predict_seconds, 0.0);
    EXPECT_GT(fr.test_size, 0u);
  }
  EXPECT_GE(result.mean_fold_seconds, 0.0);
}

}  // namespace
}  // namespace crossmine::eval
