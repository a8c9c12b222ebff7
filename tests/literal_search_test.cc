#include "core/literal_search.h"

#include <gtest/gtest.h>

#include <algorithm>
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
    PropagationResult filtered = PropagateIds(db, edge, alive_root, s.alive);
    PropagationResult unfiltered = PropagateIds(db, edge, full_root, all);
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

// ---------------------------------------------------------------------------
// Look-ahead views: `ClauseBuilder` scores a look-ahead hop over a
// `PropagateView` (unsorted, with repeats) instead of `PropagateIds`'
// sorted, duplicate-free pairs. On random databases the view, deduplicated
// when aggregation literals are on, must pick the same candidate as the
// materialized hop, and its §4.3 verdict must be the materialized `ok`.

/// What the view referee saw, so the test can assert its own coverage.
struct ViewCoverage {
  int repeats = 0;         ///< views holding a (tuple, id) pair twice
  int multi_postings = 0;  ///< FK -> PK hops reaching a doubled key
  int null_sources = 0;    ///< source runs with a NULL join value
  int numerical = 0;       ///< numerical literals won
  int aggregation = 0;     ///< aggregation literals won
  int rejections = 0;      ///< limit verdicts that rejected the hop
  int limits_judged = 0;   ///< limit verdicts compared
};

void ExpectSameCandidate(const CandidateLiteral& got,
                         const CandidateLiteral& want) {
  EXPECT_EQ(got.valid(), want.valid());
  EXPECT_EQ(got.gain, want.gain);
  EXPECT_EQ(got.pos_cov, want.pos_cov);
  EXPECT_EQ(got.neg_cov, want.neg_cov);
  EXPECT_EQ(got.constraint.attr, want.constraint.attr);
  EXPECT_EQ(got.constraint.cmp, want.constraint.cmp);
  EXPECT_EQ(got.constraint.agg, want.constraint.agg);
  EXPECT_EQ(got.constraint.category, want.constraint.category);
  EXPECT_EQ(got.constraint.threshold, want.constraint.threshold);
}

/// Sorted, duplicate-free copy of `pairs`.
IdPairs Distinct(IdPairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Scores the hop of `src` along `edge` as a view and as `PropagateIds`'
/// pairs, under every literal family mix, then compares limit verdicts.
void ExpectViewMatchesHop(const Database& db, const JoinEdge& edge,
                          const IdPairs& src, const SearchSetup& s,
                          LiteralSearcher* searcher, ViewCoverage* coverage) {
  const PropagationResult hop = PropagateIds(db, edge, src, s.alive);
  ASSERT_TRUE(hop.ok);
  PropagationScratch scratch;
  ASSERT_TRUE(PropagateView(db, edge, src, s.alive, {}, false, &scratch));
  const IdPairs raw = scratch.view;
  EXPECT_EQ(Distinct(raw), hop.pairs) << "view holds other pairs";
  if (raw.size() > hop.pairs.size()) ++coverage->repeats;

  const Column<int64_t>& src_col =
      db.relation(edge.from_rel).IntColumn(edge.from_attr);
  for (size_t lo = 0; lo < src.size(); lo = TupleRunEnd(src, lo)) {
    if (src_col[PairTuple(src[lo])] == kNullValue) ++coverage->null_sources;
  }
  if (edge.kind == JoinKind::kFkToPk && edge.to_rel != db.target()) {
    bool first = false, second = false;
    for (IdPair p : hop.pairs) {
      first |= PairTuple(p) == 0;
      second |= PairTuple(p) == 1;
    }
    if (first && second) ++coverage->multi_postings;
  }

  for (int mix = 0; mix < 3; ++mix) {
    CrossMineOptions opts;
    opts.use_numerical_literals = mix != 2;
    opts.use_aggregation_literals = mix != 0;
    SCOPED_TRACE(::testing::Message() << "families " << mix);
    ASSERT_TRUE(PropagateView(db, edge, src, s.alive, {},
                              opts.use_aggregation_literals, &scratch));
    if (opts.use_aggregation_literals) {
      EXPECT_EQ(scratch.view, hop.pairs) << "aggregations need distinct pairs";
    }
    const CandidateLiteral want =
        searcher->FindBest(edge.to_rel, hop.pairs, opts);
    const CandidateLiteral got =
        searcher->FindBest(edge.to_rel, scratch.view, opts);
    ExpectSameCandidate(got, want);
    if (want.valid() && want.constraint.agg != AggOp::kNone) {
      ++coverage->aggregation;
    } else if (want.valid() && want.constraint.cmp != CmpOp::kEq) {
      ++coverage->numerical;
    }
  }

  // §4.3 verdicts, at and around the exact volume and fan-out; a limit of
  // `total` passes a view with repeats only after deduplication.
  const uint64_t total = hop.pairs.size();
  uint64_t reached = 0;
  for (size_t lo = 0; lo < hop.pairs.size();
       lo = TupleRunEnd(hop.pairs, lo)) {
    ++reached;
  }
  std::vector<PropagationLimits> cases = {{0.0, total}, {0.0, 1}, {1.0, 0}};
  if (total > 1) cases.push_back({0.0, total - 1});
  if (reached > 0) {
    const double fanout =
        static_cast<double>(total) / static_cast<double>(reached);
    cases.push_back({fanout, 0});
    cases.push_back({fanout * 0.999, 0});
    cases.push_back({fanout, total});
  }
  for (const PropagationLimits& limits : cases) {
    SCOPED_TRACE(::testing::Message() << "limits " << limits.max_avg_fanout
                                      << " / " << limits.max_total_ids);
    const bool want = PropagateIds(db, edge, src, s.alive, limits).ok;
    for (bool distinct : {false, true}) {
      EXPECT_EQ(PropagateView(db, edge, src, s.alive, limits, distinct,
                              &scratch),
                want);
    }
    ++coverage->limits_judged;
    if (!want) ++coverage->rejections;
  }
}

/// Doubles the first key of every non-target relation (tuple 1 takes tuple
/// 0's key), as a hand-built database may: the CSV loader's primary-key
/// uniqueness check never ran, so a key slot holds two posting tuples.
void DoubleFirstKeys(Database* db) {
  for (RelId r = 0; r < db->num_relations(); ++r) {
    Relation& rel = db->mutable_relation(r);
    if (r == db->target() || rel.num_tuples() < 2) continue;
    const AttrId pk = rel.schema().primary_key();
    rel.SetInt(1, pk, rel.Int(0, pk));
  }
}

TEST(LiteralSearchTest, LookaheadViewScoresLikeMaterializedHop) {
  ViewCoverage coverage;
  for (uint64_t seed = 900; seed < 912; ++seed) {
    SCOPED_TRACE(seed);
    // Plain; skewed fan-in (many sources share a key, so one id reaches a
    // key tuple twice); 40 % NULL foreign keys; four relations.
    std::vector<Database> dbs;
    dbs.push_back(MakeRandomDatabase(seed));
    dbs.push_back(MakeRandomDatabase(seed, 3, 60, /*fk_values=*/6));
    dbs.push_back(MakeRandomDatabase(seed, 3, 30, 0, /*null_fraction=*/0.4));
    dbs.push_back(MakeRandomDatabase(seed, /*num_relations=*/4));
    for (Database& db : dbs) {
      DoubleFirstKeys(&db);
      const TupleId n = db.target_relation().num_tuples();
      SearchSetup s =
          SetupFromLabels(db, RandomAliveMask(seed ^ 0x15, n, 0.15));
      LiteralSearcher searcher(&db, &s.positive);
      searcher.SetContext(&s.alive, s.pos, s.neg);
      Rng rng(seed ^ 0x71e3);
      for (const JoinEdge& edge : db.edges()) {
        SCOPED_TRACE(::testing::Message()
                     << "edge " << edge.from_rel << "." << edge.from_attr
                     << " -> " << edge.to_rel << "." << edge.to_attr);
        // Random source pairs, dead ids included, several per tuple.
        IdPairs src;
        const Relation& from = db.relation(edge.from_rel);
        for (TupleId t = 0; t < from.num_tuples(); ++t) {
          for (TupleId id = 0; id < n; ++id) {
            if (rng.Bernoulli(0.3)) src.push_back(MakeIdPair(t, id));
          }
        }
        ExpectViewMatchesHop(db, edge, src, s, &searcher, &coverage);
      }
    }
  }
  EXPECT_GT(coverage.repeats, 0) << "no view repeated a pair";
  EXPECT_GT(coverage.multi_postings, 0) << "no doubled key was reached";
  EXPECT_GT(coverage.null_sources, 0) << "no NULL join value carried ids";
  EXPECT_GT(coverage.numerical, 0) << "no numerical literal won";
  EXPECT_GT(coverage.aggregation, 0) << "no aggregation literal won";
  EXPECT_GT(coverage.rejections, 0) << "no limit rejected a hop";
  EXPECT_GT(coverage.limits_judged, coverage.rejections)
      << "no limit passed a hop";
}

}  // namespace
}  // namespace crossmine
