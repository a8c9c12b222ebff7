#include "core/propagation.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace crossmine {
namespace {

using testing::BruteForcePropagate;
using testing::Fig2Database;
using testing::IdSet;
using testing::IdSetsFromPairs;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;

// Finds the directed edge between two (relation, attribute) pairs.
const JoinEdge* FindEdge(const Database& db, RelId from, AttrId from_attr,
                         RelId to, AttrId to_attr) {
  for (const JoinEdge& e : db.edges()) {
    if (e.from_rel == from && e.from_attr == from_attr && e.to_rel == to &&
        e.to_attr == to_attr) {
      return &e;
    }
  }
  return nullptr;
}

// Root pairs for the target relation: idset(t) = {t}.
IdPairs RootPairs(const Database& db) {
  return IdentityPairs(
      std::vector<uint8_t>(db.target_relation().num_tuples(), 1));
}

// The propagated idsets of every tuple of `rel`.
std::vector<IdSet> Sets(const Database& db, RelId rel,
                        const PropagationResult& result) {
  return IdSetsFromPairs(result.pairs, db.relation(rel).num_tuples());
}

TEST(PropagationTest, PaperFig4Example) {
  // Propagating Loan IDs to Account must yield exactly the idsets printed
  // in Fig. 4: account 124 <- {1,2}, 108 <- {3}, 45 <- {4,5}, 67 <- {}.
  // (Our tuple ids are 0-based: accounts 0..3, loans 0..4.)
  Fig2Database f = MakeFig2Database();
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  ASSERT_NE(edge, nullptr);

  PropagationResult result =
      PropagateIds(f.db, *edge, RootPairs(f.db), nullptr);
  ASSERT_TRUE(result.ok);
  std::vector<IdSet> sets = Sets(f.db, f.account, result);
  EXPECT_EQ(sets[0], (IdSet{0, 1}));  // account 124
  EXPECT_EQ(sets[1], (IdSet{2}));     // account 108
  EXPECT_EQ(sets[2], (IdSet{3, 4}));  // account 45
  EXPECT_TRUE(sets[3].empty());       // account 67
  EXPECT_EQ(result.total_ids, 5u);
}

TEST(PropagationTest, ReversePropagationRecoversLoans) {
  // Account -> Loan (PK to FK): each loan receives the ids of the loans
  // sharing its account.
  Fig2Database f = MakeFig2Database();
  const JoinEdge* to_account =
      FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  const JoinEdge* to_loan =
      FindEdge(f.db, f.account, 0, f.loan, f.loan_account);
  ASSERT_NE(to_account, nullptr);
  ASSERT_NE(to_loan, nullptr);

  PropagationResult at_account =
      PropagateIds(f.db, *to_account, RootPairs(f.db), nullptr);
  PropagationResult back =
      PropagateIds(f.db, *to_loan, at_account.pairs, nullptr);
  ASSERT_TRUE(back.ok);
  // Loans 0 and 1 share account 124.
  EXPECT_EQ(Sets(f.db, f.loan, back),
            (std::vector<IdSet>{{0, 1}, {0, 1}, {2}, {3, 4}, {3, 4}}));
}

TEST(PropagationTest, AliveMaskFiltersIds) {
  Fig2Database f = MakeFig2Database();
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  std::vector<uint8_t> alive{1, 0, 1, 0, 1};  // loans 0, 2, 4 alive

  PropagationResult result =
      PropagateIds(f.db, *edge, RootPairs(f.db), &alive);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(Sets(f.db, f.account, result),
            (std::vector<IdSet>{{0}, {2}, {4}, {}}));
}

TEST(PropagationTest, NullJoinValuesNeverMatch) {
  Fig2Database f = MakeFig2Database();
  // NULL out loan 0's account id.
  f.db.mutable_relation(f.loan).SetInt(0, f.loan_account, kNullValue);
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  PropagationResult result =
      PropagateIds(f.db, *edge, RootPairs(f.db), nullptr);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(Sets(f.db, f.account, result)[0], (IdSet{1}));  // loan 0 misses
}

TEST(PropagationTest, EmptySourceIdsetsYieldEmptyDestination) {
  Fig2Database f = MakeFig2Database();
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  PropagationResult result = PropagateIds(f.db, *edge, IdPairs{}, nullptr);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.total_ids, 0u);
  EXPECT_TRUE(result.pairs.empty());
}

TEST(PropagationTest, MaxTotalIdsLimitRejects) {
  Fig2Database f = MakeFig2Database();
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  PropagationLimits limits;
  limits.max_total_ids = 2;  // Fig. 4 needs 5
  PropagationResult result =
      PropagateIds(f.db, *edge, RootPairs(f.db), nullptr, limits);
  EXPECT_FALSE(result.ok);
  // Judged before any pair is written: the rejected edge allocated none.
  EXPECT_EQ(result.pairs.capacity(), 0u);
  EXPECT_EQ(result.total_ids, 5u);
}

TEST(PropagationTest, MaxAvgFanoutLimitRejectsUnselectiveLink) {
  Fig2Database f = MakeFig2Database();
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  PropagationLimits limits;
  limits.max_avg_fanout = 1.2;  // Fig. 4 average is 5/3 ≈ 1.67
  PropagationResult result =
      PropagateIds(f.db, *edge, RootPairs(f.db), nullptr, limits);
  EXPECT_FALSE(result.ok);

  limits.max_avg_fanout = 2.0;  // now admissible
  result = PropagateIds(f.db, *edge, RootPairs(f.db), nullptr, limits);
  EXPECT_TRUE(result.ok);
}

TEST(PropagationTest, RefreshMatchesFreshPropagationAndCompactsArena) {
  Fig2Database f = MakeFig2Database();
  const JoinEdge* edge = FindEdge(f.db, f.loan, f.loan_account, f.account, 0);
  PropagationResult result =
      PropagateIds(f.db, *edge, RootPairs(f.db), nullptr);
  ASSERT_TRUE(result.ok);
  const IdPair* storage = result.pairs.data();

  std::vector<uint8_t> alive{1, 0, 1, 0, 1};
  ASSERT_TRUE(RefreshPropagation(&result, alive, PropagationLimits{}));
  PropagationResult fresh = PropagateIds(f.db, *edge, RootPairs(f.db), &alive);
  EXPECT_EQ(result.pairs, fresh.pairs);
  EXPECT_EQ(result.total_ids, fresh.total_ids);
  // The dead pairs are erased in place: same storage, no reallocation.
  EXPECT_EQ(result.pairs.data(), storage);

  // A refresh that now trips a guard frees its pairs, like a fresh fail.
  PropagationLimits limits;
  limits.max_total_ids = 2;
  EXPECT_FALSE(RefreshPropagation(&result, alive, limits));
  EXPECT_EQ(result.pairs.capacity(), 0u);
}

TEST(PropagationTest, TransitivePropagationLemma2) {
  // Chain: Target -> Mid -> Leaf; IDs propagated through Mid must equal
  // the target tuples joinable along the two-hop path.
  Database db;
  RelationSchema leaf("Leaf");
  leaf.AddPrimaryKey("id");
  db.AddRelation(std::move(leaf));
  RelationSchema mid("Mid");
  mid.AddPrimaryKey("id");
  mid.AddForeignKey("leaf_id", 0);
  db.AddRelation(std::move(mid));
  RelationSchema target("Target");
  target.AddPrimaryKey("id");
  target.AddForeignKey("mid_id", 1);
  db.AddRelation(std::move(target));
  db.SetTarget(2);

  Relation& leaf_rel = db.mutable_relation(0);
  for (int i = 0; i < 2; ++i) {
    TupleId t = leaf_rel.AddTuple();
    leaf_rel.SetInt(t, 0, t);
  }
  Relation& mid_rel = db.mutable_relation(1);
  const int64_t mid_to_leaf[] = {0, 0, 1};
  for (int64_t l : mid_to_leaf) {
    TupleId t = mid_rel.AddTuple();
    mid_rel.SetInt(t, 0, t);
    mid_rel.SetInt(t, 1, l);
  }
  Relation& target_rel = db.mutable_relation(2);
  const int64_t target_to_mid[] = {0, 1, 2, 2};
  std::vector<ClassId> labels;
  for (int64_t m : target_to_mid) {
    TupleId t = target_rel.AddTuple();
    target_rel.SetInt(t, 0, t);
    target_rel.SetInt(t, 1, m);
    labels.push_back(0);
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  const JoinEdge* to_mid = FindEdge(db, 2, 1, 1, 0);
  const JoinEdge* to_leaf = FindEdge(db, 1, 1, 0, 0);
  ASSERT_NE(to_mid, nullptr);
  ASSERT_NE(to_leaf, nullptr);

  PropagationResult at_mid = PropagateIds(db, *to_mid, RootPairs(db), nullptr);
  PropagationResult at_leaf =
      PropagateIds(db, *to_leaf, at_mid.pairs, nullptr);
  ASSERT_TRUE(at_leaf.ok);
  // Leaf 0 <- mids {0,1} <- targets {0,1}; leaf 1 <- mid 2 <- targets {2,3}.
  EXPECT_EQ(Sets(db, 0, at_leaf), (std::vector<IdSet>{{0, 1}, {2, 3}}));
}

// Property test: on random databases, PropagateIds agrees with a
// brute-force nested-loop oracle on every edge, with and without an alive
// mask.
class PropagationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropagationPropertyTest, MatchesBruteForceOnEveryEdge) {
  Database db = MakeRandomDatabase(GetParam());
  IdPairs root = RootPairs(db);
  std::vector<IdSet> root_v =
      IdSetsFromPairs(root, db.target_relation().num_tuples());

  Rng rng(GetParam() ^ 0xabcd);
  std::vector<uint8_t> alive(root_v.size());
  for (auto& a : alive) a = rng.Bernoulli(0.7);

  for (const JoinEdge& edge : db.edges()) {
    if (edge.from_rel != db.target()) continue;
    PropagationResult got = PropagateIds(db, edge, root, nullptr);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(Sets(db, edge.to_rel, got),
              BruteForcePropagate(db, edge, root_v, nullptr));

    PropagationResult masked = PropagateIds(db, edge, root, &alive);
    ASSERT_TRUE(masked.ok);
    EXPECT_EQ(Sets(db, edge.to_rel, masked),
              BruteForcePropagate(db, edge, root_v, &alive));

    // Second hop from the reached relation, exercising Lemma 2.
    for (int32_t e2 : db.OutEdges(edge.to_rel)) {
      const JoinEdge& second = db.edges()[static_cast<size_t>(e2)];
      PropagationResult hop2 = PropagateIds(db, second, got.pairs, nullptr);
      ASSERT_TRUE(hop2.ok);
      EXPECT_EQ(Sets(db, second.to_rel, hop2),
                BruteForcePropagate(db, second, Sets(db, edge.to_rel, got),
                                    nullptr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropagationPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace crossmine
