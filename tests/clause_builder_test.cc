#include "core/clause_builder.h"

#include <gtest/gtest.h>

#include "core/clause_eval.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::Fig2Database;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;

struct BuilderSetup {
  std::vector<uint8_t> positive;
  std::vector<uint8_t> alive;
};

BuilderSetup SetupBinary(const Database& db, ClassId positive_class) {
  BuilderSetup s;
  TupleId n = db.target_relation().num_tuples();
  s.positive.resize(n);
  s.alive.assign(n, 1);
  for (TupleId t = 0; t < n; ++t) {
    s.positive[t] = db.labels()[t] == positive_class;
  }
  return s;
}

TEST(ClauseBuilderTest, BuildsTheMonthlyClause) {
  Fig2Database f = MakeFig2Database();
  BuilderSetup s = SetupBinary(f.db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  opts.use_aggregation_literals = false;
  ClauseBuilder builder(&f.db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  ASSERT_FALSE(clause.empty());
  // Whatever literal sequence is chosen, the final clause must cover only
  // positives (the dataset is separable).
  EXPECT_GT(builder.final_pos(), 0u);
  EXPECT_EQ(builder.final_neg(), 0u);
}

TEST(ClauseBuilderTest, HighGainThresholdYieldsEmptyClause) {
  Fig2Database f = MakeFig2Database();
  BuilderSetup s = SetupBinary(f.db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 100.0;  // nothing on 5 tuples reaches this
  ClauseBuilder builder(&f.db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  EXPECT_TRUE(clause.empty());
  // An empty clause filters nothing.
  EXPECT_EQ(builder.final_pos(), 3u);
  EXPECT_EQ(builder.final_neg(), 2u);
}

TEST(ClauseBuilderTest, StopsAtMaxClauseLength) {
  Database db = MakeRandomDatabase(7, /*num_relations=*/3, /*max_tuples=*/25);
  BuilderSetup s = SetupBinary(db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.01;  // accept nearly anything
  opts.max_clause_length = 2;
  ClauseBuilder builder(&db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  EXPECT_LE(clause.length(), 2);
}

TEST(ClauseBuilderTest, StopsEarlyOnPerfectClause) {
  Fig2Database f = MakeFig2Database();
  BuilderSetup s = SetupBinary(f.db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.1;
  opts.max_clause_length = 6;
  opts.use_aggregation_literals = false;
  ClauseBuilder builder(&f.db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  // frequency=monthly already reaches 3+/1-; one more literal separates
  // fully — no reason to use all six slots.
  EXPECT_LE(clause.length(), 3);
  EXPECT_EQ(builder.final_neg(), 0u);
}

TEST(ClauseBuilderTest, FinalAliveConsistentWithApplier) {
  Database db = MakeRandomDatabase(11);
  BuilderSetup s = SetupBinary(db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.2;
  ClauseBuilder builder(&db, &s.positive, &opts);
  std::vector<uint8_t> initial = s.alive;
  Clause clause = builder.Build(s.alive);
  EXPECT_EQ(builder.final_alive(), testing::SatisfiedMask(db, clause, initial));
}

TEST(ClauseBuilderTest, RestrictiveFanoutLimitsDegradeGracefully) {
  Fig2Database f = MakeFig2Database();
  BuilderSetup s = SetupBinary(f.db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  opts.use_aggregation_literals = false;
  // Reject every propagation: only target-relation literals remain.
  opts.propagation_limits.max_total_ids = 1;
  ClauseBuilder builder(&f.db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  for (const ComplexLiteral& lit : clause.literals()) {
    EXPECT_TRUE(lit.edge_path.empty());
  }
}

TEST(ClauseBuilderTest, RespectsInitialAliveMask) {
  Fig2Database f = MakeFig2Database();
  BuilderSetup s = SetupBinary(f.db, 1);
  // Only loans {0, 2} participate.
  s.alive = {1, 0, 1, 0, 0};
  CrossMineOptions opts;
  opts.min_foil_gain = 0.1;
  opts.use_aggregation_literals = false;
  ClauseBuilder builder(&f.db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  for (TupleId t : {1u, 3u, 4u}) {
    EXPECT_FALSE(builder.final_alive()[t]);
  }
}

class BuilderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuilderPropertyTest, EveryBuiltClauseCoversAPositive) {
  Database db = MakeRandomDatabase(GetParam());
  BuilderSetup s = SetupBinary(db, 1);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.3;
  ClauseBuilder builder(&db, &s.positive, &opts);
  Clause clause = builder.Build(s.alive);
  if (clause.empty()) return;
  EXPECT_GT(builder.final_pos(), 0u);
  // Counts must agree with the alive mask.
  uint32_t pos = 0, neg = 0;
  for (TupleId t = 0; t < db.target_relation().num_tuples(); ++t) {
    if (!builder.final_alive()[t]) continue;
    if (s.positive[t]) {
      ++pos;
    } else {
      ++neg;
    }
  }
  EXPECT_EQ(builder.final_pos(), pos);
  EXPECT_EQ(builder.final_neg(), neg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderPropertyTest,
                         ::testing::Range<uint64_t>(500, 512));

}  // namespace
}  // namespace crossmine
