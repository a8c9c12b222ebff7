#include "core/literal_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/foil_gain.h"
#include "core/propagation.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::BruteForceBestGain;
using testing::BruteForceCoverage;
using testing::Fig2Database;
using testing::IdSet;
using testing::IdSetsFromPairs;
using testing::PairsFromIdSets;
using testing::MakeFig2Database;
using testing::MakeRandomDatabase;
using testing::RandomAliveMask;

struct SearchSetup {
  std::vector<uint8_t> positive;
  std::vector<uint8_t> alive;
  uint32_t pos = 0, neg = 0;
};

/// Class flags and P(c)/N(c) for `alive` (empty = every target alive).
SearchSetup SetupFromLabels(const Database& db,
                            std::vector<uint8_t> alive = {}) {
  SearchSetup s;
  TupleId n = db.target_relation().num_tuples();
  s.positive.resize(n);
  s.alive = alive.empty() ? std::vector<uint8_t>(n, 1) : std::move(alive);
  for (TupleId t = 0; t < n; ++t) {
    s.positive[t] = db.labels()[t] == 1;
    if (!s.alive[t]) continue;
    if (s.positive[t]) {
      ++s.pos;
    } else {
      ++s.neg;
    }
  }
  return s;
}

TEST(LiteralSearchTest, FindsMonthlyFrequencyLiteral) {
  // On Fig. 2 with idsets propagated to Account, the best categorical
  // literal is frequency = monthly covering 3+/1-.
  Fig2Database f = MakeFig2Database();
  SearchSetup s = SetupFromLabels(f.db);
  LiteralSearcher searcher(&f.db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);

  std::vector<IdSet> idsets = {{0, 1}, {2}, {3, 4}, {}};
  CrossMineOptions opts;
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  CandidateLiteral best =
      searcher.FindBest(f.account, PairsFromIdSets(idsets), opts);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.constraint.attr, f.account_frequency);
  EXPECT_EQ(best.constraint.category, f.monthly);
  EXPECT_EQ(best.pos_cov, 3u);
  EXPECT_EQ(best.neg_cov, 1u);
  EXPECT_DOUBLE_EQ(best.gain, FoilGain(3, 2, 3, 1));
}

TEST(LiteralSearchTest, DistinctTargetCountingSection43) {
  // The §4.3 pitfall: one positive target joinable with many satisfying
  // tuples must be counted once. Build 10 loans (5+/5-); the positive loan
  // 0 joins 10 accounts, every other loan joins 1; all accounts satisfy
  // frequency = monthly. The literal must cover 5+/5- (useless), not 14+.
  Database db;
  RelationSchema acc("Account");
  acc.AddPrimaryKey("id");
  AttrId freq = acc.AddCategorical("frequency");
  db.AddRelation(std::move(acc));
  RelationSchema loan("Loan");
  loan.AddPrimaryKey("id");
  db.AddRelation(std::move(loan));
  db.SetTarget(1);

  Relation& account = db.mutable_relation(0);
  Relation& loans = db.mutable_relation(1);
  std::vector<ClassId> labels;
  std::vector<IdSet> idsets;
  for (TupleId t = 0; t < 10; ++t) {
    TupleId l = loans.AddTuple();
    loans.SetInt(l, 0, l);
    labels.push_back(t < 5 ? 1 : 0);
  }
  // Loan 0 joins 10 accounts; every other loan joins exactly one.
  for (int i = 0; i < 10; ++i) {
    TupleId a = account.AddTuple();
    account.SetInt(a, 0, a);
    account.SetInt(a, freq, 0);
    idsets.push_back({0});
  }
  for (TupleId t = 1; t < 10; ++t) {
    TupleId a = account.AddTuple();
    account.SetInt(a, 0, a);
    account.SetInt(a, freq, 0);
    idsets.push_back({t});
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CandidateLiteral best =
      searcher.FindBest(0, PairsFromIdSets(idsets), opts);
  // The only literal covers everything — no discrimination, so the search
  // reports nothing (had labels been counted per-binding it would report
  // a misleading 14+/5- literal).
  EXPECT_FALSE(best.valid());
}

TEST(LiteralSearchTest, NumericalSweepFindsThreshold) {
  // On the Loan relation itself (idset(t)={t}), duration <= 12 covers the
  // two class-1 loans 0,1 and nothing else... actually loans 0,1 have
  // duration 12; loans 2,4 have 24; loan 3 has 36. Labels: +,+,-,-,+.
  Fig2Database f = MakeFig2Database();
  SearchSetup s = SetupFromLabels(f.db);
  LiteralSearcher searcher(&f.db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);

  std::vector<IdSet> root(5);
  for (TupleId t = 0; t < 5; ++t) root[t] = {t};
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CandidateLiteral best =
      searcher.FindBest(f.loan, PairsFromIdSets(root), opts);
  ASSERT_TRUE(best.valid());
  // duration <= 12 gives 2+/0-, the purest split with decent coverage;
  // payment <= 120 would give 2+/0- as well (90 and 120): either is
  // acceptable as long as coverage is pure.
  EXPECT_EQ(best.neg_cov, 0u);
  EXPECT_GE(best.pos_cov, 2u);
}

TEST(LiteralSearchTest, NumericalGeDirection) {
  // Make a dataset where only >= separates: values 1..6, positives at the
  // top half.
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  AttrId x = t.AddNumerical("x");
  db.AddRelation(std::move(t));
  db.SetTarget(0);
  Relation& rel = db.mutable_relation(0);
  std::vector<ClassId> labels;
  for (int i = 0; i < 6; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    rel.SetDouble(id, x, i);
    labels.push_back(i >= 3 ? 1 : 0);
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  std::vector<IdSet> root(6);
  for (TupleId i = 0; i < 6; ++i) root[i] = {i};
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  CandidateLiteral best = searcher.FindBest(0, PairsFromIdSets(root), opts);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.constraint.cmp, CmpOp::kGe);
  EXPECT_DOUBLE_EQ(best.constraint.threshold, 3.0);
  EXPECT_EQ(best.pos_cov, 3u);
  EXPECT_EQ(best.neg_cov, 0u);
}

TEST(LiteralSearchTest, AggregationCountLiteralFound) {
  // Positives join 3 accounts each, negatives 1: count(*) >= 3 separates.
  Database db;
  RelationSchema acc("Account");
  acc.AddPrimaryKey("id");
  acc.AddCategorical("c");
  db.AddRelation(std::move(acc));
  RelationSchema loan("Loan");
  loan.AddPrimaryKey("id");
  db.AddRelation(std::move(loan));
  db.SetTarget(1);
  Relation& account = db.mutable_relation(0);
  Relation& loans = db.mutable_relation(1);
  std::vector<ClassId> labels;
  std::vector<IdSet> idsets;
  for (TupleId t = 0; t < 8; ++t) {
    TupleId l = loans.AddTuple();
    loans.SetInt(l, 0, l);
    bool positive = t < 4;
    labels.push_back(positive ? 1 : 0);
    int copies = positive ? 3 : 1;
    for (int i = 0; i < copies; ++i) {
      TupleId a = account.AddTuple();
      account.SetInt(a, 0, a);
      account.SetInt(a, 1, 0);
      idsets.push_back({t});
    }
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  SearchSetup s = SetupFromLabels(db);
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  CrossMineOptions opts;  // aggregations enabled by default
  CandidateLiteral best =
      searcher.FindBest(0, PairsFromIdSets(idsets), opts);
  ASSERT_TRUE(best.valid());
  EXPECT_EQ(best.constraint.agg, AggOp::kCount);
  EXPECT_EQ(best.constraint.cmp, CmpOp::kGe);
  EXPECT_EQ(best.pos_cov, 4u);
  EXPECT_EQ(best.neg_cov, 0u);
}

TEST(LiteralSearchTest, DisablingFamiliesRestrictsSearch) {
  Fig2Database f = MakeFig2Database();
  SearchSetup s = SetupFromLabels(f.db);
  LiteralSearcher searcher(&f.db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  std::vector<IdSet> root(5);
  for (TupleId t = 0; t < 5; ++t) root[t] = {t};

  CrossMineOptions none;
  none.use_numerical_literals = false;
  none.use_aggregation_literals = false;
  // The loan relation has only key + numerical attributes, so disabling
  // numerical literals leaves nothing to find.
  CandidateLiteral best =
      searcher.FindBest(f.loan, PairsFromIdSets(root), none);
  EXPECT_FALSE(best.valid());
}

// Property test: categorical literal coverage equals a brute-force
// distinct-target count on random databases, and no category value beats
// the winner's gain.
class LiteralSearchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// Searches `rel` for categorical literals under `s.alive` and checks the
/// winner against the brute-force oracles.
void ExpectCategoricalMatchesBruteForce(const Database& db, RelId rel_id,
                                        const IdPairs& pairs,
                                        const SearchSetup& s,
                                        LiteralSearcher* searcher) {
  const Relation& rel = db.relation(rel_id);
  CrossMineOptions opts;
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  CandidateLiteral best = searcher->FindBest(rel_id, pairs, opts);
  std::vector<IdSet> idsets = IdSetsFromPairs(pairs, rel.num_tuples());
  EXPECT_DOUBLE_EQ(best.gain,
                   BruteForceBestGain(rel, idsets, s.alive, s.positive, s.pos,
                                      s.neg, /*numerical=*/false));
  if (!best.valid()) return;
  auto [pos, neg] =
      BruteForceCoverage(idsets, s.alive, s.positive, [&](TupleId u) {
        return rel.Int(u, best.constraint.attr) == best.constraint.category;
      });
  EXPECT_EQ(best.pos_cov, pos);
  EXPECT_EQ(best.neg_cov, neg);
  EXPECT_DOUBLE_EQ(best.gain, FoilGain(s.pos, s.neg, pos, neg));
}

/// Checks the search over the target's node-0 `(t, t)` pairs and, for every
/// edge out of the target, the search over alive-filtered and unfiltered
/// propagated pairs (the latter keep dead targets, which counting must
/// skip).
void ExpectEdgesMatchBruteForce(const Database& db, const SearchSetup& s) {
  LiteralSearcher searcher(&db, &s.positive);
  searcher.SetContext(&s.alive, s.pos, s.neg);
  std::vector<uint8_t> all(db.target_relation().num_tuples(), 1);
  IdPairs full_root = IdentityPairs(all);
  IdPairs alive_root = IdentityPairs(s.alive);
  ExpectCategoricalMatchesBruteForce(db, db.target(), alive_root, s,
                                     &searcher);
  for (const JoinEdge& edge : db.edges()) {
    if (edge.from_rel != db.target()) continue;
    PropagationResult filtered = PropagateIds(db, edge, alive_root, &s.alive);
    PropagationResult unfiltered = PropagateIds(db, edge, full_root, nullptr);
    ASSERT_TRUE(filtered.ok && unfiltered.ok);
    ExpectCategoricalMatchesBruteForce(db, edge.to_rel, filtered.pairs, s,
                                       &searcher);
    ExpectCategoricalMatchesBruteForce(db, edge.to_rel, unfiltered.pairs, s,
                                       &searcher);
  }
}

TEST_P(LiteralSearchPropertyTest, CategoricalCountsMatchBruteForce) {
  Database db = MakeRandomDatabase(GetParam());
  ExpectEdgesMatchBruteForce(db, SetupFromLabels(db));

  // A sampling-like frontier (~15% of targets alive) over a skewed-fan-in
  // database: filtered propagation leaves sparse runs, unfiltered
  // propagation long runs that are mostly dead targets.
  Database sampled = MakeRandomDatabase(GetParam(), 3, 240, /*fk_values=*/6);
  TupleId n = sampled.target_relation().num_tuples();
  ExpectEdgesMatchBruteForce(
      sampled,
      SetupFromLabels(sampled, RandomAliveMask(GetParam() ^ 0xa11e, n, 0.15)));
}

/// A target relation `T` and a child `C` whose `owner` foreign key refers
/// back to it, each with one categorical attribute `c`. Target t owns
/// `min_children` to `max_children` child tuples; every categorical cell is
/// `draw(rng, t)`, t being the target the tuple is or belongs to.
template <typename Draw>
Database MakeOwnedChildDatabase(uint64_t seed, int min_children,
                                int max_children, Draw draw) {
  Database db;
  RelationSchema target("T");
  target.AddPrimaryKey("id");
  target.AddCategorical("c");
  db.AddRelation(std::move(target));
  RelationSchema child("C");
  child.AddPrimaryKey("id");
  child.AddCategorical("c");
  child.AddForeignKey("owner", 0);
  db.AddRelation(std::move(child));
  db.SetTarget(0);

  Rng rng(seed);
  Relation& targets = db.mutable_relation(0);
  Relation& children = db.mutable_relation(1);
  std::vector<ClassId> labels;
  for (TupleId t = 0; t < 120; ++t) {
    targets.AddTuple();
    targets.SetInt(t, 0, t);
    targets.SetInt(t, 1, draw(rng, t));
    labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    const int n = min_children + static_cast<int>(rng.Uniform(
                                     static_cast<uint64_t>(max_children -
                                                           min_children + 1)));
    for (int i = 0; i < n; ++i) {
      TupleId u = children.AddTuple();
      children.SetInt(u, 0, u);
      children.SetInt(u, 1, draw(rng, t));
      children.SetInt(u, 2, t);
    }
  }
  db.SetLabels(std::move(labels), 2);
  CM_CHECK(db.Finalize().ok());
  return db;
}

/// Runs the brute-force comparison with every target alive and under a
/// sampling-like ~15% alive mask.
void ExpectFullAndSampledMatchBruteForce(const Database& db, uint64_t seed) {
  ExpectEdgesMatchBruteForce(db, SetupFromLabels(db));
  ExpectEdgesMatchBruteForce(
      db, SetupFromLabels(db, RandomAliveMask(seed ^ 0xa11e,
                                              db.target_relation().num_tuples(),
                                              0.15)));
}

TEST_P(LiteralSearchPropertyTest, CategoricalNullCellsMatchBruteForce) {
  // NULL satisfies no category: NULL cells must count toward no value.
  Database db = MakeOwnedChildDatabase(
      GetParam(), 1, 4, [](Rng& rng, TupleId) {
        return rng.Bernoulli(0.3) ? kNullValue
                                  : static_cast<int64_t>(rng.Uniform(4));
      });
  size_t nulls = 0;
  for (RelId r = 0; r < db.num_relations(); ++r) {
    const Relation& rel = db.relation(r);
    for (TupleId u = 0; u < rel.num_tuples(); ++u) {
      nulls += rel.Int(u, 1) == kNullValue;
    }
  }
  ASSERT_GT(nulls, 0u);
  ExpectFullAndSampledMatchBruteForce(db, GetParam());
}

TEST_P(LiteralSearchPropertyTest, CategoricalSparseValuesMatchBruteForce) {
  // Values spread over most of the int64 range take the sorted AttrIndex
  // layout, whose slots come from FindValue rather than `value - lo`.
  const int64_t kValues[] = {INT64_MIN + 1, -4'000'000'007, -3, 0,
                             5'000'000'000, INT64_MAX - 1};
  Database db = MakeOwnedChildDatabase(
      GetParam(), 1, 4, [&](Rng& rng, TupleId) {
        return kValues[rng.Uniform(std::size(kValues))];
      });
  for (RelId r = 0; r < db.num_relations(); ++r) {
    ASSERT_FALSE(db.relation(r).GetAttrIndex(1)->dense());
  }
  ExpectFullAndSampledMatchBruteForce(db, GetParam());
}

TEST_P(LiteralSearchPropertyTest, CategoricalRepeatedValueCountsTargetOnce) {
  // Every target owns 2-4 children that mostly share one value, so a
  // value's segment holds the same target id several times; the count must
  // take it once.
  Database db = MakeOwnedChildDatabase(
      GetParam(), 2, 4, [](Rng& rng, TupleId t) {
        return rng.Bernoulli(0.8) ? static_cast<int64_t>(t % 3)
                                  : static_cast<int64_t>(rng.Uniform(3));
      });
  const Relation& children = db.relation(1);
  std::set<std::pair<int64_t, int64_t>> owner_values;
  bool repeated = false;
  for (TupleId u = 0; u < children.num_tuples(); ++u) {
    repeated |= !owner_values.emplace(children.Int(u, 2), children.Int(u, 1))
                     .second;
  }
  ASSERT_TRUE(repeated);
  ExpectFullAndSampledMatchBruteForce(db, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiteralSearchPropertyTest,
                         ::testing::Range<uint64_t>(100, 112));

}  // namespace
}  // namespace crossmine
