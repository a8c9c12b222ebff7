// Cross-module property suites: randomized comparisons of production code
// against brute-force oracles, beyond the per-module property tests.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "common/random.h"
#include "core/classifier.h"
#include "core/foil_gain.h"
#include "core/literal_search.h"
#include "core/propagation.h"
#include "eval/metrics.h"
#include "storage/storage.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::FilterIdSet;
using testing::IdSet;
using testing::IdSetsFromPairs;
using testing::MakeRandomDatabase;
using testing::NormalizeIdSet;
using testing::UnionInPlace;

// ---------------------------------------------------------------- idsets --

class IdSetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdSetFuzzTest, UnionMatchesStdSet) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    IdSet a, b;
    std::set<TupleId> oracle;
    for (int i = 0; i < 20; ++i) {
      if (rng.Bernoulli(0.6)) {
        TupleId v = static_cast<TupleId>(rng.Uniform(30));
        a.push_back(v);
        oracle.insert(v);
      }
      if (rng.Bernoulli(0.6)) {
        TupleId v = static_cast<TupleId>(rng.Uniform(30));
        b.push_back(v);
        oracle.insert(v);
      }
    }
    NormalizeIdSet(&a);
    NormalizeIdSet(&b);
    UnionInPlace(&a, b);
    EXPECT_EQ(a, IdSet(oracle.begin(), oracle.end()));
  }
}

TEST_P(IdSetFuzzTest, FilterMatchesStdSet) {
  Rng rng(GetParam() ^ 0x5555);
  for (int round = 0; round < 50; ++round) {
    IdSet s;
    for (int i = 0; i < 25; ++i) {
      s.push_back(static_cast<TupleId>(rng.Uniform(40)));
    }
    NormalizeIdSet(&s);
    std::vector<uint8_t> alive(40);
    for (auto& a : alive) a = rng.Bernoulli(0.5);
    std::set<TupleId> oracle;
    for (TupleId v : s) {
      if (alive[v]) oracle.insert(v);
    }
    FilterIdSet(&s, alive);
    EXPECT_EQ(s, IdSet(oracle.begin(), oracle.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdSetFuzzTest,
                         ::testing::Range<uint64_t>(600, 608));

// ------------------------------------------- numerical literal coverage --

class NumericalLiteralOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

/// Runs Find-Best-Literal (categorical + numerical) under `alive` and checks
/// each winner against the brute-force oracles: the winning numerical
/// literal's counts, and that no categorical value or numerical threshold
/// beats the winner's gain. `filter` searches as training does: the target
/// itself over its node-0 `(t, t)` pairs, then pairs propagated through
/// the alive mask; without it the propagated pairs keep dead targets,
/// which counting must skip.
void ExpectNumericalMatchesBruteForce(const Database& db,
                                      const std::vector<uint8_t>& alive,
                                      bool filter) {
  TupleId n = db.target_relation().num_tuples();
  std::vector<uint8_t> positive(n);
  uint32_t pos = 0, neg = 0;
  for (TupleId t = 0; t < n; ++t) {
    positive[t] = db.labels()[t] == 1;
    if (!alive[t]) continue;
    if (positive[t]) {
      ++pos;
    } else {
      ++neg;
    }
  }
  LiteralSearcher searcher(&db, &positive);
  searcher.SetContext(&alive, pos, neg);
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;  // numerical-only focus

  auto check = [&](RelId rel_id, const IdPairs& pairs) {
    const Relation& rel = db.relation(rel_id);
    CandidateLiteral best = searcher.FindBest(rel_id, pairs, opts);
    std::vector<IdSet> idsets = IdSetsFromPairs(pairs, rel.num_tuples());
    EXPECT_DOUBLE_EQ(best.gain,
                     testing::BruteForceBestGain(rel, idsets, alive, positive,
                                                 pos, neg, /*numerical=*/true));
    if (!best.valid() || best.constraint.cmp == CmpOp::kEq) return;

    // Recompute coverage of the winning numerical literal by brute force.
    const Column<double>& col = rel.DoubleColumn(best.constraint.attr);
    auto [p, ng] = testing::BruteForceCoverage(
        idsets, alive, positive, [&](TupleId u) {
          return best.constraint.cmp == CmpOp::kLe
                     ? col[u] <= best.constraint.threshold
                     : col[u] >= best.constraint.threshold;
        });
    EXPECT_EQ(best.pos_cov, p);
    EXPECT_EQ(best.neg_cov, ng);
    EXPECT_DOUBLE_EQ(best.gain, FoilGain(pos, neg, p, ng));
  };

  std::vector<uint8_t> all(n, 1);
  IdPairs root = IdentityPairs(filter ? alive : all);
  if (filter) check(db.target(), root);
  for (const JoinEdge& edge : db.edges()) {
    if (edge.from_rel != db.target()) continue;
    PropagationResult prop =
        PropagateIds(db, edge, root, filter ? alive : all);
    ASSERT_TRUE(prop.ok);
    check(edge.to_rel, prop.pairs);
  }
}

TEST_P(NumericalLiteralOracleTest, BestLiteralCountsMatchBruteForce) {
  Database db = MakeRandomDatabase(GetParam());
  std::vector<uint8_t> all(db.target_relation().num_tuples(), 1);
  ExpectNumericalMatchesBruteForce(db, all, /*filter=*/false);

  // ~15% of targets alive over a skewed-fan-in database: unfiltered
  // propagation leaves dense runs full of dead targets, filtered
  // propagation sparse ones.
  Database sampled = MakeRandomDatabase(GetParam(), 3, 240, /*fk_values=*/6);
  std::vector<uint8_t> alive = testing::RandomAliveMask(
      GetParam() ^ 0xa11e, sampled.target_relation().num_tuples(), 0.15);
  ExpectNumericalMatchesBruteForce(sampled, alive, /*filter=*/false);
  ExpectNumericalMatchesBruteForce(sampled, alive, /*filter=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NumericalLiteralOracleTest,
                         ::testing::Range<uint64_t>(620, 632));

// ------------------------------------------- FK-FK propagation symmetry --

class FkFkPropagationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FkFkPropagationTest, MatchesBruteForceOnFkFkEdges) {
  // MakeRandomDatabase gives non-target relations optional FKs back to the
  // target, creating FK-FK edges between them through the target's PK.
  Database db = MakeRandomDatabase(GetParam(), /*num_relations=*/4);
  std::vector<uint8_t> all(db.target_relation().num_tuples(), 1);
  IdPairs root = IdentityPairs(all);

  int fkfk_checked = 0;
  for (const JoinEdge& first : db.edges()) {
    if (first.from_rel != db.target()) continue;
    PropagationResult at_mid = PropagateIds(db, first, root, all);
    ASSERT_TRUE(at_mid.ok);
    for (int32_t e2 : db.OutEdges(first.to_rel)) {
      const JoinEdge& second = db.edges()[static_cast<size_t>(e2)];
      if (second.kind != JoinKind::kFkToFk) continue;
      PropagationResult got = PropagateIds(db, second, at_mid.pairs, all);
      ASSERT_TRUE(got.ok);
      EXPECT_EQ(
          IdSetsFromPairs(got.pairs, db.relation(second.to_rel).num_tuples()),
          testing::BruteForcePropagate(
              db, second,
              IdSetsFromPairs(at_mid.pairs,
                              db.relation(first.to_rel).num_tuples()),
              nullptr));
      ++fkfk_checked;
    }
  }
  // The schema generator usually creates at least one FK-FK edge; when it
  // does not, the test is vacuous for that seed (allowed).
  (void)fkfk_checked;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FkFkPropagationTest,
                         ::testing::Range<uint64_t>(640, 650));

// ------------------------------------------------------ CSV value fuzz ---

class CsvValueFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvValueFuzzTest, ExtremeNumericsSurviveRoundTrip) {
  Database db;
  RelationSchema t("T");
  t.AddPrimaryKey("id");
  AttrId x = t.AddNumerical("x");
  AttrId c = t.AddCategorical("c");
  db.AddRelation(std::move(t));
  db.SetTarget(0);

  Rng rng(GetParam());
  Relation& rel = db.mutable_relation(0);
  std::vector<ClassId> labels;
  const double extremes[] = {0.0,    -0.0,   1e-300, -1e300,
                             3.14159265358979, 1e17,  -123456.789};
  for (int i = 0; i < 40; ++i) {
    TupleId id = rel.AddTuple();
    rel.SetInt(id, 0, id);
    double v = rng.Bernoulli(0.4) ? extremes[rng.Uniform(7)]
                                  : rng.UniformDouble(-1e6, 1e6);
    rel.SetDouble(id, x, v);
    rel.SetInt(id, c, static_cast<int64_t>(rng.Uniform(5)));
    labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
  }
  db.SetLabels(labels, 2);
  ASSERT_TRUE(db.Finalize().ok());

  std::string dir = ::testing::TempDir() + "/csv_fuzz_" +
                    std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(storage::SaveDatabase(db, dir).ok());
  StatusOr<Database> loaded = storage::OpenDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (TupleId id = 0; id < 40u; ++id) {
    EXPECT_DOUBLE_EQ(loaded->relation(0).Double(id, x),
                     db.relation(0).Double(id, x));
    EXPECT_EQ(loaded->relation(0).Int(id, c), db.relation(0).Int(id, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvValueFuzzTest,
                         ::testing::Range<uint64_t>(660, 666));

// ----------------------------------------------- end-to-end train fuzz ---

class TrainFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrainFuzzTest, TrainPredictNeverCrashesAndStaysInRange) {
  Database db = MakeRandomDatabase(GetParam(), /*num_relations=*/4,
                                   /*max_tuples=*/40);
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;

  CrossMineOptions opts;
  opts.min_foil_gain = 0.2;
  opts.use_sampling = (GetParam() % 2) == 0;
  opts.prediction_mode = static_cast<PredictionMode>(GetParam() % 3);
  CrossMineClassifier model(opts);
  ASSERT_TRUE(model.Train(db, ids).ok());
  std::vector<ClassId> pred = model.Predict(db, ids);
  ASSERT_EQ(pred.size(), ids.size());
  for (ClassId p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, db.num_classes());
  }
  // Training-set accuracy must beat random guessing on labels it has seen
  // (random labels: models may memorize little, so only sanity-check the
  // range, not a threshold).
  std::vector<ClassId> truth;
  for (TupleId t : ids) truth.push_back(db.labels()[t]);
  double acc = eval::Accuracy(truth, pred);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrainFuzzTest,
                         ::testing::Range<uint64_t>(700, 716));

}  // namespace
}  // namespace crossmine
