#include "core/constraint_eval.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/propagation.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::ApplyConstraintV;
using testing::Fig2Database;
using testing::IdSet;
using testing::IdSetsFromPairs;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;
using testing::RandomAliveMask;

Constraint Categorical(AttrId attr, int64_t value) {
  Constraint c;
  c.attr = attr;
  c.cmp = CmpOp::kEq;
  c.category = value;
  return c;
}

Constraint Numerical(AttrId attr, CmpOp cmp, double threshold) {
  Constraint c;
  c.attr = attr;
  c.cmp = cmp;
  c.threshold = threshold;
  return c;
}

Constraint Aggregation(AggOp agg, AttrId attr, CmpOp cmp, double threshold) {
  Constraint c;
  c.agg = agg;
  c.attr = attr;
  c.cmp = cmp;
  c.threshold = threshold;
  return c;
}

TEST(TupleSatisfiesTest, CategoricalEquality) {
  Fig2Database f = MakeFig2Database();
  const Relation& account = f.db.relation(f.account);
  Constraint monthly = Categorical(f.account_frequency, f.monthly);
  EXPECT_TRUE(TupleSatisfies(account, 0, monthly));
  EXPECT_FALSE(TupleSatisfies(account, 1, monthly));
  EXPECT_TRUE(TupleSatisfies(account, 2, monthly));
}

TEST(TupleSatisfiesTest, NullNeverSatisfiesCategorical) {
  Fig2Database f = MakeFig2Database();
  Relation& account = f.db.mutable_relation(f.account);
  account.SetInt(0, f.account_frequency, kNullValue);
  EXPECT_FALSE(TupleSatisfies(account, 0,
                              Categorical(f.account_frequency, f.monthly)));
}

TEST(TupleSatisfiesTest, NumericalComparisons) {
  Fig2Database f = MakeFig2Database();
  const Relation& loan = f.db.relation(f.loan);
  // Loan 0 has duration 12.
  EXPECT_TRUE(TupleSatisfies(loan, 0,
                             Numerical(f.loan_duration, CmpOp::kLe, 12)));
  EXPECT_TRUE(TupleSatisfies(loan, 0,
                             Numerical(f.loan_duration, CmpOp::kGe, 12)));
  EXPECT_FALSE(TupleSatisfies(loan, 0,
                              Numerical(f.loan_duration, CmpOp::kGe, 13)));
  EXPECT_FALSE(TupleSatisfies(loan, 0,
                              Numerical(f.loan_duration, CmpOp::kLe, 11)));
}

// Helper: attach idsets to Account per Fig. 4 and run ApplyConstraint.
struct AppliedResult {
  std::vector<IdSet> idsets;
  std::vector<uint8_t> satisfied;
};

AppliedResult Apply(const Fig2Database& f, const Constraint& c,
                    std::vector<uint8_t> alive = {1, 1, 1, 1, 1}) {
  AppliedResult r;
  r.idsets = {{0, 1}, {2}, {3, 4}, {}};  // Fig. 4 idsets on Account
  r.satisfied.assign(5, 0);
  ApplyConstraintV(f.db.relation(f.account), c, alive, &r.idsets,
                  &r.satisfied);
  return r;
}

TEST(ApplyConstraintTest, CategoricalSatisfiedSetMatchesPaper) {
  // "frequency = monthly" is satisfied by loans {1,2,4,5} (ids 0,1,3,4).
  Fig2Database f = MakeFig2Database();
  AppliedResult r = Apply(f, Categorical(f.account_frequency, f.monthly));
  EXPECT_EQ(r.satisfied, (std::vector<uint8_t>{1, 1, 0, 1, 1}));
}

TEST(ApplyConstraintTest, CategoricalClearsNonSatisfyingIdsets) {
  // Variable-binding semantics: the weekly account's idset is wiped so
  // onward propagation follows only monthly accounts.
  Fig2Database f = MakeFig2Database();
  AppliedResult r = Apply(f, Categorical(f.account_frequency, f.monthly));
  EXPECT_EQ(r.idsets[0], (IdSet{0, 1}));
  EXPECT_TRUE(r.idsets[1].empty());  // weekly account 108
  EXPECT_EQ(r.idsets[2], (IdSet{3, 4}));
}

TEST(ApplyConstraintTest, AliveMaskExcludesDeadTargets) {
  Fig2Database f = MakeFig2Database();
  AppliedResult r = Apply(f, Categorical(f.account_frequency, f.monthly),
                          {1, 0, 1, 0, 1});
  EXPECT_EQ(r.satisfied, (std::vector<uint8_t>{1, 0, 0, 0, 1}));
}

TEST(ApplyConstraintTest, NumericalConstraint) {
  Fig2Database f = MakeFig2Database();
  // Account.date >= 950101 holds for accounts 124 (960227) and 108 (950923)
  // — loans {0,1} and {2}.
  AppliedResult r = Apply(f, Numerical(f.account_date, CmpOp::kGe, 950101));
  EXPECT_EQ(r.satisfied, (std::vector<uint8_t>{1, 1, 1, 0, 0}));
}

TEST(ApplyConstraintTest, AggregationCount) {
  Fig2Database f = MakeFig2Database();
  // count(*) >= 1: every loan with an account qualifies (all five).
  AppliedResult r =
      Apply(f, Aggregation(AggOp::kCount, kInvalidAttr, CmpOp::kGe, 1));
  EXPECT_EQ(r.satisfied, (std::vector<uint8_t>{1, 1, 1, 1, 1}));
  // Each loan joins exactly one account, so count >= 2 holds for none.
  r = Apply(f, Aggregation(AggOp::kCount, kInvalidAttr, CmpOp::kGe, 2));
  EXPECT_EQ(r.satisfied, (std::vector<uint8_t>{0, 0, 0, 0, 0}));
}

TEST(ApplyConstraintTest, AggregationLeavesIdsetsIntact) {
  Fig2Database f = MakeFig2Database();
  AppliedResult r =
      Apply(f, Aggregation(AggOp::kCount, kInvalidAttr, CmpOp::kGe, 2));
  EXPECT_EQ(r.idsets[0], (IdSet{0, 1}));  // untouched
}

TEST(ApplyConstraintTest, AggregationSumAndAvg) {
  // Give loan 0 two accounts by reusing idsets: accounts 124 and 108 both
  // carry id 0. sum(date) over them = 960227 + 950923; avg in between.
  Fig2Database f = MakeFig2Database();
  std::vector<IdSet> idsets = {{0}, {0}, {}, {}};
  std::vector<uint8_t> satisfied(5, 0);
  std::vector<uint8_t> alive(5, 1);
  Constraint sum_c =
      Aggregation(AggOp::kSum, f.account_date, CmpOp::kGe, 1911150.0);
  ApplyConstraintV(f.db.relation(f.account), sum_c, alive, &idsets,
                  &satisfied);
  EXPECT_EQ(satisfied[0], 1);  // 960227 + 950923 = 1911150

  idsets = {{0}, {0}, {}, {}};
  Constraint avg_c =
      Aggregation(AggOp::kAvg, f.account_date, CmpOp::kLe, 955575.0);
  ApplyConstraintV(f.db.relation(f.account), avg_c, alive, &idsets,
                  &satisfied);
  EXPECT_EQ(satisfied[0], 1);  // avg = 955575
  avg_c.threshold = 955574.0;
  idsets = {{0}, {0}, {}, {}};
  ApplyConstraintV(f.db.relation(f.account), avg_c, alive, &idsets,
                  &satisfied);
  EXPECT_EQ(satisfied[0], 0);
}

TEST(ApplyConstraintTest, AggregationNeedsAtLeastOneJoinPartner) {
  Fig2Database f = MakeFig2Database();
  // No account carries loan 2's id -> loan 2 cannot satisfy any
  // aggregation literal, even "count <= 100".
  std::vector<IdSet> idsets = {{0, 1}, {}, {3, 4}, {}};
  std::vector<uint8_t> satisfied(5, 0);
  std::vector<uint8_t> alive(5, 1);
  Constraint c =
      Aggregation(AggOp::kCount, kInvalidAttr, CmpOp::kLe, 100);
  ApplyConstraintV(f.db.relation(f.account), c, alive, &idsets, &satisfied);
  EXPECT_EQ(satisfied[2], 0);
  EXPECT_EQ(satisfied[0], 1);
}

// Random databases under a sampling-like alive mask (~15% of targets):
// the satisfied set equals the brute-force union of the satisfying tuples'
// idsets restricted to alive targets, and exactly the non-satisfying
// tuples' runs are erased; aggregations fold count / sum per alive target
// and leave the pairs alone. Unfiltered propagation keeps dead targets in
// the input, which must never be reported.
void ExpectApplyConstraintMatchesBruteForce(uint64_t seed,
                                            uint64_t* dead_pairs) {
  Database db = MakeRandomDatabase(seed, 3, 240, /*fk_values=*/6);
  TupleId n = db.target_relation().num_tuples();
  std::vector<uint8_t> alive = RandomAliveMask(seed ^ 0xa11e, n, 0.15);
  IdPairs root = IdentityPairs(std::vector<uint8_t>(n, 1));

  for (const JoinEdge& edge : db.edges()) {
    if (edge.from_rel != db.target()) continue;
    const Relation& rel = db.relation(edge.to_rel);
    for (bool filter : {false, true}) {
      PropagationResult prop =
          PropagateIds(db, edge, root, filter ? &alive : nullptr);
      ASSERT_TRUE(prop.ok);
      for (IdPair p : prop.pairs) *dead_pairs += alive[PairId(p)] ? 0 : 1;
      const std::vector<IdSet> before =
          IdSetsFromPairs(prop.pairs, rel.num_tuples());

      std::vector<Constraint> constraints = {
          Aggregation(AggOp::kCount, kInvalidAttr, CmpOp::kGe, 2),
          Aggregation(AggOp::kCount, kInvalidAttr, CmpOp::kLe, 1)};
      for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
        AttrKind kind = rel.schema().attr(a).kind;
        if (kind == AttrKind::kCategorical) {
          for (int64_t v = 0; v < 4; ++v) {
            constraints.push_back(Categorical(a, v));
          }
        } else if (kind == AttrKind::kNumerical) {
          for (double v : {2.5, 5.0, 7.5}) {
            constraints.push_back(Numerical(a, CmpOp::kLe, v));
            constraints.push_back(Numerical(a, CmpOp::kGe, v));
          }
          constraints.push_back(
              Aggregation(AggOp::kSum, a, CmpOp::kGe, 10.0));
          constraints.push_back(Aggregation(AggOp::kAvg, a, CmpOp::kLe, 5.0));
        }
      }
      for (const Constraint& c : constraints) {
        std::vector<uint8_t> want(n, 0);
        std::vector<IdSet> expected_after = before;
        if (c.agg == AggOp::kNone) {
          for (TupleId u = 0; u < rel.num_tuples(); ++u) {
            if (!TupleSatisfies(rel, u, c)) {
              expected_after[u].clear();
              continue;
            }
            for (TupleId id : before[u]) {
              if (alive[id]) want[id] = 1;
            }
          }
        } else {
          // Per alive target: count and ascending-tuple sum of its tuples.
          std::vector<uint32_t> count(n, 0);
          std::vector<double> sum(n, 0.0);
          for (TupleId u = 0; u < rel.num_tuples(); ++u) {
            for (TupleId id : before[u]) {
              if (!alive[id]) continue;
              ++count[id];
              if (c.agg != AggOp::kCount) sum[id] += rel.Double(u, c.attr);
            }
          }
          for (TupleId id = 0; id < n; ++id) {
            want[id] = AggregateSatisfies(c, count[id], sum[id]) ? 1 : 0;
          }
        }
        IdPairs pairs = prop.pairs;
        std::vector<uint8_t> satisfied(n, 7);
        ApplyConstraint(rel, c, alive, &pairs, &satisfied);
        EXPECT_EQ(satisfied, want);
        EXPECT_EQ(IdSetsFromPairs(pairs, rel.num_tuples()), expected_after);
      }
    }
  }
}

TEST(ApplyConstraintPropertyTest, SatisfiedSetMatchesBruteForce) {
  uint64_t dead_pairs = 0;
  for (uint64_t seed = 700; seed < 708; ++seed) {
    SCOPED_TRACE(seed);
    ExpectApplyConstraintMatchesBruteForce(seed, &dead_pairs);
  }
  EXPECT_GT(dead_pairs, 0u) << "no dead targets: the test lost its coverage";
}

}  // namespace
}  // namespace crossmine
