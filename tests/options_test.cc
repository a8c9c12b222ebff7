// Cross-cutting option-interplay tests: every knob of CrossMineOptions /
// FoilOptions must be honored and composable.

#include <gtest/gtest.h>

#include "baselines/foil.h"
#include "core/classifier.h"
#include "datagen/synthetic.h"
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

TEST(OptionsTest, DisablingNumericalLiteralsExcludesThem) {
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.2;
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(f.db, AllIds(f.db)).ok());
  for (const Clause& c : model.clauses()) {
    for (const ComplexLiteral& lit : c.literals()) {
      EXPECT_EQ(lit.constraint.agg, AggOp::kNone);
      EXPECT_EQ(lit.constraint.cmp, CmpOp::kEq);  // only categorical left
    }
  }
}

TEST(OptionsTest, DisablingAggregationsExcludesThem) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 5;
  cfg.expected_tuples = 100;
  cfg.seed = 91;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(*db, AllIds(*db)).ok());
  for (const Clause& c : model.clauses()) {
    for (const ComplexLiteral& lit : c.literals()) {
      EXPECT_EQ(lit.constraint.agg, AggOp::kNone);
    }
  }
}

TEST(OptionsTest, NoLookAheadMeansSingleHopPaths) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 92;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.look_one_ahead = false;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(*db, AllIds(*db)).ok());
  for (const Clause& c : model.clauses()) {
    for (const ComplexLiteral& lit : c.literals()) {
      EXPECT_LE(lit.edge_path.size(), 1u);
    }
  }
}

TEST(OptionsTest, LookAheadPathsAreAtMostTwoHops) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 93;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineClassifier model;  // look-ahead on by default
  ASSERT_TRUE(model.Train(*db, AllIds(*db)).ok());
  for (const Clause& c : model.clauses()) {
    for (const ComplexLiteral& lit : c.literals()) {
      EXPECT_LE(lit.edge_path.size(), 2u);
      // Second hops must follow FK->PK edges with a different attribute
      // than the arrival one (Algorithm 3's k' != k).
      if (lit.edge_path.size() == 2) {
        const JoinEdge& first =
            db->edges()[static_cast<size_t>(lit.edge_path[0])];
        const JoinEdge& second =
            db->edges()[static_cast<size_t>(lit.edge_path[1])];
        EXPECT_EQ(second.kind, JoinKind::kFkToPk);
        EXPECT_NE(second.from_attr, first.to_attr);
      }
    }
  }
}

TEST(OptionsTest, MaxClausesPerClassCapsModel) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 200;
  cfg.seed = 94;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.max_clauses_per_class = 1;
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(*db, AllIds(*db)).ok());
  EXPECT_LE(model.clauses().size(), 2u);  // one per class
}

TEST(OptionsTest, FoilMulticlassOneVsRest) {
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  AttrId c = t.AddCategorical("c");
  db.AddRelation(std::move(t));
  db.SetTarget(0);
  Relation& rel = db.mutable_relation(0);
  std::vector<ClassId> labels;
  for (int i = 0; i < 30; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    rel.SetInt(id, c, i % 3);
    labels.push_back(i % 3);
  }
  db.SetLabels(labels, 3);
  ASSERT_TRUE(db.Finalize().ok());

  baselines::FoilOptions opts;
  opts.min_foil_gain = 0.5;
  baselines::FoilClassifier model(opts);
  ASSERT_TRUE(model.Train(db, AllIds(db)).ok());
  EXPECT_EQ(model.Predict(db, AllIds(db)), labels);
}

TEST(OptionsTest, IndexedJoinsProduceSameFoilModel) {
  Fig2Database f = MakeFig2Database();
  baselines::FoilOptions slow;
  slow.min_foil_gain = 0.5;
  baselines::FoilOptions fast = slow;
  fast.indexed_joins = true;
  baselines::FoilClassifier a(slow), b(fast);
  ASSERT_TRUE(a.Train(f.db, AllIds(f.db)).ok());
  ASSERT_TRUE(b.Train(f.db, AllIds(f.db)).ok());
  ASSERT_EQ(a.clauses().size(), b.clauses().size());
  for (size_t i = 0; i < a.clauses().size(); ++i) {
    EXPECT_EQ(a.clauses()[i].ToString(f.db), b.clauses()[i].ToString(f.db));
  }
}

}  // namespace
}  // namespace crossmine
