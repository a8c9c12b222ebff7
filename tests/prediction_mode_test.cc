#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/classifier.h"
#include "datagen/synthetic.h"
#include "eval/cross_validation.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::Fig2Database;
using testing::MakeFig2Database;

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;
  return ids;
}

// ------------------------------------------------------ prediction modes --

TEST(PredictionModeTest, AllModesSolveTheSeparableCase) {
  Fig2Database f = MakeFig2Database();
  for (PredictionMode mode :
       {PredictionMode::kBestClause, PredictionMode::kWeightedVote,
        PredictionMode::kDecisionList}) {
    CrossMineOptions opts;
    opts.min_foil_gain = 0.5;
    opts.prediction_mode = mode;
    CrossMineClassifier model(opts);
    ASSERT_TRUE(model.Train(f.db, AllIds(f.db)).ok());
    EXPECT_EQ(model.Predict(f.db, AllIds(f.db)),
              (std::vector<ClassId>{1, 1, 0, 0, 1}))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(PredictionModeTest, ModesComparableOnSynthetic) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 250;
  cfg.seed = 101;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  for (PredictionMode mode :
       {PredictionMode::kBestClause, PredictionMode::kWeightedVote,
        PredictionMode::kDecisionList}) {
    CrossMineOptions opts;
    opts.use_aggregation_literals = false;
    opts.prediction_mode = mode;
    auto result = eval::CrossValidate(
        *db, [&] { return std::make_unique<CrossMineClassifier>(opts); }, 3,
        1);
    EXPECT_GT(result.mean_accuracy, 0.65)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(PredictionModeTest, UnsatisfiedTupleGetsDefaultInEveryMode) {
  // A model with one clause that covers nothing of the query.
  Fig2Database f = MakeFig2Database();
  for (PredictionMode mode :
       {PredictionMode::kBestClause, PredictionMode::kWeightedVote,
        PredictionMode::kDecisionList}) {
    CrossMineOptions opts;
    // An unreachable gain threshold trains a clause-free model, forcing the
    // "no clause satisfied" path; the default class is the training
    // majority (class 1: labels are {1,1,0,0,1}).
    opts.min_foil_gain = 1e9;
    opts.prediction_mode = mode;
    CrossMineClassifier model(opts);
    ASSERT_TRUE(model.Train(f.db, AllIds(f.db)).ok());
    ASSERT_TRUE(model.clauses().empty());
    ASSERT_EQ(model.default_class(), 1);
    EXPECT_EQ(model.Predict(f.db, {0, 2, 4}),
              (std::vector<ClassId>{1, 1, 1}));
  }
}

// -------------------------------------------------------------- explain --

TEST(ExplainTest, ReportsDecidingClause) {
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(f.db, AllIds(f.db)).ok());

  CrossMineClassifier::Explanation ex = model.Explain(f.db, 0);
  EXPECT_EQ(ex.predicted, 1);
  ASSERT_GE(ex.clause_index, 0);
  EXPECT_EQ(model.clauses()[static_cast<size_t>(ex.clause_index)]
                .predicted_class,
            1);
  EXPECT_FALSE(ex.satisfied.empty());
  // The deciding clause must be among the satisfied ones.
  EXPECT_NE(std::find(ex.satisfied.begin(), ex.satisfied.end(),
                      ex.clause_index),
            ex.satisfied.end());
}

TEST(ExplainTest, DefaultPredictionHasNoClause) {
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 1e9;  // clause-free model (see above)
  CrossMineClassifier model(opts);
  // Training on class-0 loans only makes 0 the majority default.
  ASSERT_TRUE(model.Train(f.db, {2, 3}).ok());
  ASSERT_TRUE(model.clauses().empty());
  ASSERT_EQ(model.default_class(), 0);
  CrossMineClassifier::Explanation ex = model.Explain(f.db, 3);
  EXPECT_EQ(ex.predicted, 0);
  EXPECT_EQ(ex.clause_index, -1);
  EXPECT_TRUE(ex.satisfied.empty());
}

TEST(ExplainTest, ConsistentWithPredict) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 120;
  cfg.seed = 102;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineClassifier model;
  ASSERT_TRUE(model.Train(*db, AllIds(*db)).ok());
  std::vector<ClassId> pred = model.Predict(*db, AllIds(*db));
  for (TupleId t = 0; t < 20; ++t) {
    EXPECT_EQ(model.Explain(*db, t).predicted, pred[t]);
  }
}

}  // namespace
}  // namespace crossmine
