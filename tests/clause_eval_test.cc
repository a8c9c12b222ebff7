#include "core/clause_eval.h"

#include <gtest/gtest.h>

#include "core/classifier.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::BruteForceClauseSatisfied;
using testing::Fig2Database;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;
using testing::SatisfiedMask;

int32_t FindEdgeId(const Database& db, RelId from, AttrId from_attr,
                   RelId to) {
  for (size_t e = 0; e < db.edges().size(); ++e) {
    const JoinEdge& edge = db.edges()[e];
    if (edge.from_rel == from && edge.from_attr == from_attr &&
        edge.to_rel == to) {
      return static_cast<int32_t>(e);
    }
  }
  return -1;
}

Clause MonthlyClause(const Fig2Database& f) {
  Clause c(f.db.target());
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.edge_path = {FindEdgeId(f.db, f.loan, f.loan_account, f.account)};
  lit.constraint.attr = f.account_frequency;
  lit.constraint.cmp = CmpOp::kEq;
  lit.constraint.category = f.monthly;
  c.Append(f.db, lit);
  return c;
}

TEST(ClauseEvalTest, PaperFig2ClauseCoverage) {
  // "Loan(+) :- [Loan.account_id -> Account.account_id, frequency =
  // monthly]" is satisfied by loans 1, 2, 4, 5 (ids 0, 1, 3, 4).
  Fig2Database f = MakeFig2Database();
  std::vector<uint8_t> all(5, 1);
  std::vector<uint8_t> mask = SatisfiedMask(f.db, MonthlyClause(f), all);
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1, 0, 1, 1}));
}

TEST(ClauseEvalTest, QueryMaskRestrictsEvaluation) {
  Fig2Database f = MakeFig2Database();
  std::vector<uint8_t> query{0, 1, 1, 0, 0};
  std::vector<uint8_t> mask =
      SatisfiedMask(f.db, MonthlyClause(f), query);
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 1, 0, 0, 0}));
}

TEST(ClauseEvalTest, EmptyClauseSatisfiedByAllQueried) {
  Fig2Database f = MakeFig2Database();
  Clause c(f.db.target());
  std::vector<uint8_t> query{1, 0, 1, 0, 1};
  EXPECT_EQ(SatisfiedMask(f.db, c, query), query);
}

TEST(ClauseEvalTest, MultiLiteralConjunction) {
  // monthly AND duration <= 12: loans {0,1,3,4} ∩ {0,1} = {0,1}.
  Fig2Database f = MakeFig2Database();
  Clause c = MonthlyClause(f);
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.constraint.attr = f.loan_duration;
  lit.constraint.cmp = CmpOp::kLe;
  lit.constraint.threshold = 12;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(SatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{1, 1, 0, 0, 0}));
}

TEST(ClauseEvalTest, VariableBindingOnSameNode) {
  // Two constraints on the same Account node must bind the SAME account:
  // frequency = monthly AND date >= 950101 — only account 124 (date
  // 960227) qualifies; account 45 is monthly but dated 941209. So loans
  // {0, 1} satisfy, loan 4 (account 45) does not, even though account 108
  // (weekly) passes the date test.
  Fig2Database f = MakeFig2Database();
  Clause c = MonthlyClause(f);
  ComplexLiteral lit;
  lit.source_node = 1;  // the Account node, empty prop-path
  lit.constraint.attr = f.account_date;
  lit.constraint.cmp = CmpOp::kGe;
  lit.constraint.threshold = 950101;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(SatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{1, 1, 0, 0, 0}));
}

TEST(ClauseEvalTest, UnsatisfiableClauseEmptyMask) {
  Fig2Database f = MakeFig2Database();
  Clause c = MonthlyClause(f);
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.constraint.attr = f.loan_amount;
  lit.constraint.cmp = CmpOp::kGe;
  lit.constraint.threshold = 1e9;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(SatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{0, 0, 0, 0, 0}));
}

TEST(ClauseEvalTest, AggregationLiteralInClause) {
  // count(*) >= 2 over the FK-FK self-ish path: propagate Loan ->
  // Account, then Account -> Loan (accounts with 2 loans). Simpler: use
  // the PkToFk edge Loan <- Account ... keep it direct: count of accounts
  // per loan is 1, so count >= 2 fails for everyone.
  Fig2Database f = MakeFig2Database();
  Clause c(f.db.target());
  ComplexLiteral lit;
  lit.source_node = 0;
  lit.edge_path = {FindEdgeId(f.db, f.loan, f.loan_account, f.account)};
  lit.constraint.agg = AggOp::kCount;
  lit.constraint.attr = kInvalidAttr;
  lit.constraint.cmp = CmpOp::kGe;
  lit.constraint.threshold = 2;
  c.Append(f.db, lit);
  std::vector<uint8_t> all(5, 1);
  EXPECT_EQ(SatisfiedMask(f.db, c, all),
            (std::vector<uint8_t>{0, 0, 0, 0, 0}));
}

TEST(ClauseEvalTest, TrainedModelCoverageConsistentWithPrediction) {
  // Every learned clause must re-cover at least one tuple of its class
  // when evaluated afresh from the query ids, not from the frontier the
  // trainer built it on.
  Fig2Database f = MakeFig2Database();
  CrossMineOptions opts;
  opts.min_foil_gain = 0.5;
  CrossMineClassifier model(opts);
  std::vector<TupleId> all_ids{0, 1, 2, 3, 4};
  ASSERT_TRUE(model.Train(f.db, all_ids).ok());
  ASSERT_FALSE(model.clauses().empty());
  std::vector<uint8_t> all(5, 1);
  for (const Clause& clause : model.clauses()) {
    std::vector<uint8_t> mask = SatisfiedMask(f.db, clause, all);
    uint32_t pos = 0;
    for (TupleId t = 0; t < 5; ++t) {
      if (mask[t] && f.db.labels()[t] == clause.predicted_class) ++pos;
    }
    EXPECT_GE(pos, 1u);  // every clause covers at least one of its class
  }
}

// Trainer-coverage check: the evaluator agrees with a replay of each
// learned clause through `ApplyConstraint` over brute-force nested-loop
// propagation, on random databases.
class ClauseEvalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClauseEvalPropertyTest, MatchesBruteForceOracle) {
  Database db = MakeRandomDatabase(GetParam(), /*num_relations=*/3,
                                   /*max_tuples=*/25);
  CrossMineOptions opts;
  opts.min_foil_gain = 0.1;  // accept weak literals: more clauses to check
  opts.max_clause_length = 3;
  CrossMineClassifier model(opts);
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;
  ASSERT_TRUE(model.Train(db, ids).ok());

  std::vector<uint8_t> all(db.target_relation().num_tuples(), 1);
  for (const Clause& clause : model.clauses()) {
    EXPECT_EQ(SatisfiedMask(db, clause, all),
              BruteForceClauseSatisfied(db, clause, all))
        << clause.ToString(db);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClauseEvalPropertyTest,
                         ::testing::Range<uint64_t>(200, 216));

}  // namespace
}  // namespace crossmine
