// Referees for prediction: `EvaluateClause` against a per-ID brute-force
// oracle that shares no code with it, and the `Predict` / `Explain` input
// and consistency contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/random.h"
#include "core/classifier.h"
#include "core/clause_eval.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "test_util.h"

#ifndef CROSSMINE_SOURCE_DIR
#error "predict_referee_test needs CROSSMINE_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace crossmine {
namespace {

using testing::MakeRandomDatabase;

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// ------------------------------------------------------------ the oracle --

/// What the oracle walked, so the suite can show it reached the hard cases.
struct OracleCoverage {
  uint64_t fk_fk_hops = 0;
  uint64_t two_hop_paths = 0;
  uint64_t null_join_values = 0;
  uint64_t null_fk_fk_sources = 0;  // NULL join values leaving FK-FK hops
  uint64_t aggregates[4] = {};  // aggregation literals evaluated, by AggOp
};

bool OracleHolds(const Relation& rel, TupleId t, const Constraint& c) {
  if (rel.schema().attr(c.attr).kind == AttrKind::kNumerical) {
    double v = rel.Double(t, c.attr);
    return c.cmp == CmpOp::kLe ? v <= c.threshold : v >= c.threshold;
  }
  int64_t v = rel.Int(t, c.attr);
  return v != kNullValue && v == c.category;
}

/// Walks `clause` for the single target `id`, holding every clause node as
/// a `std::set` of tuples: a hop scans the whole destination relation for
/// equal non-NULL join values, a plain constraint filters the node's set,
/// and an aggregation folds over the set in ascending tuple order. When the
/// final literal is an aggregation that is reached with a joinable tuple,
/// `last_aggregate` receives its value.
bool OracleSatisfies(const Database& db, const Clause& clause, TupleId id,
                     OracleCoverage* coverage = nullptr,
                     std::optional<double>* last_aggregate = nullptr) {
  std::vector<std::set<TupleId>> nodes{{id}};
  const std::vector<ComplexLiteral>& lits = clause.literals();
  for (size_t li = 0; li < lits.size(); ++li) {
    const ComplexLiteral& lit = lits[li];
    size_t cur = static_cast<size_t>(lit.source_node);
    for (int32_t e : lit.edge_path) {
      const JoinEdge& edge = db.edges()[static_cast<size_t>(e)];
      const Relation& src = db.relation(edge.from_rel);
      const Relation& dst = db.relation(edge.to_rel);
      std::set<TupleId> next;
      for (TupleId t : nodes[cur]) {
        int64_t v = src.Int(t, edge.from_attr);
        if (v == kNullValue) {
          if (coverage != nullptr) {
            ++coverage->null_join_values;
            if (edge.kind == JoinKind::kFkToFk) ++coverage->null_fk_fk_sources;
          }
          continue;
        }
        for (TupleId u = 0; u < dst.num_tuples(); ++u) {
          if (dst.Int(u, edge.to_attr) == v) next.insert(u);
        }
      }
      if (coverage != nullptr && edge.kind == JoinKind::kFkToFk) {
        ++coverage->fk_fk_hops;
      }
      nodes.push_back(std::move(next));
      cur = nodes.size() - 1;
    }
    if (coverage != nullptr && lit.edge_path.size() == 2) {
      ++coverage->two_hop_paths;
    }

    size_t cnode = static_cast<size_t>(lit.ConstraintNode());
    std::set<TupleId>& node = nodes[cnode];
    const Relation& rel = db.relation(clause.nodes()[cnode].relation);
    const Constraint& c = lit.constraint;
    if (c.agg == AggOp::kNone) {
      std::erase_if(node, [&](TupleId t) { return !OracleHolds(rel, t, c); });
      if (node.empty()) return false;
      continue;
    }
    if (node.empty()) return false;
    double sum = 0;
    for (TupleId t : node) {
      if (c.agg != AggOp::kCount) sum += rel.Double(t, c.attr);
    }
    double count = static_cast<double>(node.size());
    double value = c.agg == AggOp::kCount ? count
                   : c.agg == AggOp::kSum ? sum
                                          : sum / count;
    if (coverage != nullptr) ++coverage->aggregates[static_cast<int>(c.agg)];
    if (last_aggregate != nullptr && li + 1 == lits.size()) {
      *last_aggregate = value;
    }
    if (!(c.cmp == CmpOp::kLe ? value <= c.threshold
                              : value >= c.threshold)) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------ random clauses --

AttrId RandomAttrOfKind(const Relation& rel, AttrKind kind, Rng* rng) {
  std::vector<AttrId> attrs;
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    if (rel.schema().attr(a).kind == kind) attrs.push_back(a);
  }
  return attrs[rng->Uniform(attrs.size())];
}

/// One random constraint on `rel`, uniformly among the five literal
/// families: categorical, numerical, count, sum and avg.
Constraint RandomConstraint(const Relation& rel, Rng* rng) {
  Constraint c;
  c.cmp = rng->Bernoulli(0.5) ? CmpOp::kLe : CmpOp::kGe;
  switch (rng->Uniform(5)) {
    case 0:
      c.attr = RandomAttrOfKind(rel, AttrKind::kCategorical, rng);
      c.cmp = CmpOp::kEq;
      c.category = static_cast<int64_t>(rng->Uniform(5));  // 4 never occurs
      break;
    case 1:
      c.attr = RandomAttrOfKind(rel, AttrKind::kNumerical, rng);
      c.threshold = rng->UniformDouble(0, 10);
      break;
    case 2:
      c.agg = AggOp::kCount;
      c.threshold = static_cast<double>(1 + rng->Uniform(4));
      break;
    default:
      c.agg = rng->Bernoulli(0.5) ? AggOp::kSum : AggOp::kAvg;
      c.attr = RandomAttrOfKind(rel, AttrKind::kNumerical, rng);
      c.threshold = rng->UniformDouble(0, 30);
      break;
  }
  return c;
}

/// A random clause of 1–3 literals, each with a 0-, 1- or 2-hop path from a
/// random existing node. Sum and avg thresholds are, when some target
/// reaches the literal, exactly the aggregate the oracle computes for it, so
/// summing in any other order shows up as a flipped comparison.
Clause RandomClause(const Database& db, Rng* rng, uint64_t* exact) {
  Clause clause(db.target());
  const TupleId n = db.target_relation().num_tuples();
  int num_literals = 1 + static_cast<int>(rng->Uniform(3));
  for (int l = 0; l < num_literals; ++l) {
    ComplexLiteral lit;
    lit.source_node = static_cast<int32_t>(rng->Uniform(clause.nodes().size()));
    RelId rel = clause.nodes()[static_cast<size_t>(lit.source_node)].relation;
    uint64_t hops = rng->Uniform(3);
    for (uint64_t h = 0; h < hops && !db.OutEdges(rel).empty(); ++h) {
      const std::vector<int32_t>& out = db.OutEdges(rel);
      int32_t e = out[rng->Uniform(out.size())];
      lit.edge_path.push_back(e);
      rel = db.edges()[static_cast<size_t>(e)].to_rel;
    }
    lit.constraint = RandomConstraint(db.relation(rel), rng);
    if (lit.constraint.agg == AggOp::kSum ||
        lit.constraint.agg == AggOp::kAvg) {
      Clause probe = clause;
      probe.Append(db, lit);
      for (int attempt = 0; attempt < 8; ++attempt) {
        std::optional<double> value;
        OracleSatisfies(db, probe, static_cast<TupleId>(rng->Uniform(n)),
                        nullptr, &value);
        if (value.has_value()) {
          lit.constraint.threshold = *value;
          ++*exact;
          break;
        }
      }
    }
    clause.Append(db, lit);
  }
  return clause;
}

// ------------------------------------------------------- oracle referee --

TEST(ClauseOracleTest, EvaluatorMatchesPerIdSetOracle) {
  OracleCoverage coverage;
  uint64_t exact_thresholds = 0;
  uint64_t clauses = 0;
  for (uint64_t seed = 900; seed < 930; ++seed) {
    // Two of three seeds skew fan-in (6 FK values): many pairs per
    // destination and long aggregation folds. Every third seed also NULLs
    // 40% of the FK values, so FK-FK hops leave NULL sources that must not
    // join the NULLs on the other side.
    Database db = MakeRandomDatabase(seed, /*num_relations=*/4,
                                     /*max_tuples=*/40,
                                     /*fk_values=*/seed % 3 == 0 ? 0 : 6,
                                     /*null_fraction=*/seed % 3 == 2 ? 0.4
                                                                    : 0.1);
    Rng rng(seed * 7919);
    const std::vector<TupleId> all = AllIds(db);
    for (int k = 0; k < 30; ++k, ++clauses) {
      Clause clause = RandomClause(db, &rng, &exact_thresholds);
      uint64_t all_pairs = 0;
      std::vector<uint8_t> flags = EvaluateClause(db, clause, all, &all_pairs);
      ASSERT_EQ(flags.size(), all.size());

      uint64_t single_pairs = 0;
      for (TupleId id : all) {
        ASSERT_EQ(flags[id] != 0, OracleSatisfies(db, clause, id, &coverage))
            << "seed " << seed << " id " << id << ": " << clause.ToString(db);
        // Partition invariance, finest split: each id alone.
        EXPECT_EQ(EvaluateClause(db, clause, {id}, &single_pairs)[0],
                  flags[id]);
      }
      EXPECT_EQ(single_pairs, all_pairs) << clause.ToString(db);

      // A random two-way split gives the same flags and pair total.
      std::vector<TupleId> part[2];
      for (TupleId id : all) part[rng.Bernoulli(0.5) ? 1 : 0].push_back(id);
      uint64_t split_pairs = 0;
      for (const std::vector<TupleId>& ids : part) {
        std::vector<uint8_t> got = EvaluateClause(db, clause, ids, &split_pairs);
        for (size_t i = 0; i < ids.size(); ++i) {
          EXPECT_EQ(got[i], flags[ids[i]]);
        }
      }
      EXPECT_EQ(split_pairs, all_pairs);
    }
  }
  // The generator must actually have reached every hard case.
  EXPECT_GT(coverage.fk_fk_hops, 0u);
  EXPECT_GT(coverage.two_hop_paths, 0u);
  EXPECT_GT(coverage.null_join_values, 0u);
  EXPECT_GT(coverage.null_fk_fk_sources, 0u);
  EXPECT_GT(coverage.aggregates[static_cast<int>(AggOp::kCount)], 0u);
  EXPECT_GT(coverage.aggregates[static_cast<int>(AggOp::kSum)], 0u);
  EXPECT_GT(coverage.aggregates[static_cast<int>(AggOp::kAvg)], 0u);
  EXPECT_GT(exact_thresholds, clauses / 10);
}

TEST(ClauseOracleTest, EmptyQueryAndEmptyClause) {
  Database db = MakeRandomDatabase(931);
  Clause empty(db.target());
  EXPECT_TRUE(EvaluateClause(db, empty, {}).empty());
  EXPECT_EQ(EvaluateClause(db, empty, {0, 2, 5}),
            (std::vector<uint8_t>{1, 1, 1}));
}

// ----------------------------------------------------- predict contract --

constexpr PredictionMode kModes[] = {PredictionMode::kBestClause,
                                     PredictionMode::kWeightedVote,
                                     PredictionMode::kDecisionList};

CrossMineClassifier TrainedOnSynthetic(const Database& db) {
  CrossMineClassifier model;
  CM_CHECK(model.Train(db, AllIds(db)).ok());
  return model;
}

Database SmallSynthetic() {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  CM_CHECK(db.ok());
  return std::move(*db);
}

TEST(PredictContractTest, UnsortedRepeatedAndEmptyIdsAnswerInInputOrder) {
  Database db = SmallSynthetic();
  CrossMineClassifier model = TrainedOnSynthetic(db);
  ASSERT_FALSE(model.clauses().empty());
  Rng rng(77);
  const TupleId n = db.target_relation().num_tuples();
  for (PredictionMode mode : kModes) {
    model.set_prediction_mode(mode);
    EXPECT_TRUE(model.Predict(db, {}).empty());
    EXPECT_EQ(model.Predict(db, {5, 3, 5}),
              (std::vector<ClassId>{model.PredictOne(db, 5),
                                    model.PredictOne(db, 3),
                                    model.PredictOne(db, 5)}));
    std::vector<TupleId> ids;
    for (int i = 0; i < 60; ++i) {
      ids.push_back(static_cast<TupleId>(rng.Uniform(n)));
    }
    std::vector<ClassId> got = model.Predict(db, ids);
    ASSERT_EQ(got.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(got[i], model.PredictOne(db, ids[i]))
          << "mode " << static_cast<int>(mode) << " id " << ids[i];
    }
  }
}

TEST(PredictContractTest, BatchMatchesPredictOneInEveryMode) {
  Database db = SmallSynthetic();
  CrossMineClassifier model = TrainedOnSynthetic(db);
  const std::vector<TupleId> all = AllIds(db);
  for (PredictionMode mode : kModes) {
    model.set_prediction_mode(mode);
    std::vector<ClassId> batch = model.Predict(db, all);
    for (TupleId id : all) {
      EXPECT_EQ(batch[id], model.PredictOne(db, id))
          << "mode " << static_cast<int>(mode) << " id " << id;
    }
  }
}

TEST(PredictContractTest, PropagatedPairsAddUpOverIds) {
  Database db = SmallSynthetic();
  CrossMineClassifier model = TrainedOnSynthetic(db);
  for (PredictionMode mode : kModes) {
    model.set_prediction_mode(mode);
    MetricsRegistry batch_registry, single_registry;
    model.set_metrics(&batch_registry);
    model.Predict(db, AllIds(db));
    model.set_metrics(&single_registry);
    for (TupleId id : AllIds(db)) model.PredictOne(db, id);
    model.set_metrics(nullptr);
    double batch = batch_registry.Snapshot().at("predict.propagated_pairs");
    EXPECT_GT(batch, 0.0);
    EXPECT_EQ(single_registry.Snapshot().at("predict.propagated_pairs"),
              batch)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(PredictContractTest, ConcurrentPredictAndExplainMatchSequential) {
  // The serve pool runs Predict and Explain concurrently on one model, one
  // metrics registry and one database whose join indexes are built lazily
  // by the first probe. A fresh copy of the training database starts with
  // every index cold.
  Database train_db = SmallSynthetic();
  CrossMineClassifier model = TrainedOnSynthetic(train_db);
  Database db = SmallSynthetic();
  const TupleId n = db.target_relation().num_tuples();
  std::vector<std::vector<TupleId>> requests;
  Rng rng(91);
  for (int r = 0; r < 16; ++r) {
    std::vector<TupleId> ids;
    for (uint64_t i = 0, len = 1 + rng.Uniform(20); i < len; ++i) {
      ids.push_back(static_cast<TupleId>(rng.Uniform(n)));
    }
    requests.push_back(std::move(ids));
  }
  MetricsRegistry registry;
  model.set_metrics(&registry);
  std::vector<std::vector<ClassId>> got(requests.size());
  std::vector<ClassId> explained(requests.size());
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (size_t r = w; r < requests.size(); r += 4) {
        got[r] = model.Predict(db, requests[r]);
        explained[r] = model.Explain(db, requests[r][0]).predicted;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  model.set_metrics(nullptr);
  for (size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(got[r], model.Predict(train_db, requests[r]));
    EXPECT_EQ(explained[r], got[r][0]);
  }
}

/// The databases the golden models were trained on (tests/golden/).
struct GoldenCase {
  const char* file;
  Database db;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  auto synthetic = [](int relations, int tuples, uint64_t seed) {
    datagen::SyntheticConfig cfg;
    cfg.num_relations = relations;
    cfg.expected_tuples = tuples;
    cfg.seed = seed;
    return datagen::GenerateSyntheticDatabase(cfg).value();
  };
  cases.push_back({"synthetic_r8_t150_s17.cmm", synthetic(8, 150, 17)});
  cases.push_back(
      {"synthetic_r10_t200_s23_sampling.cmm", synthetic(10, 200, 23)});
  datagen::FinancialConfig fin;
  fin.num_loans = 80;
  fin.seed = 5;
  cases.push_back({"financial_l80_s5.cmm",
                   datagen::GenerateFinancialDatabase(fin).value()});
  datagen::MutagenesisConfig mut;
  mut.num_molecules = 60;
  mut.seed = 9;
  cases.push_back({"mutagenesis_m60_s9.cmm",
                   datagen::GenerateMutagenesisDatabase(mut).value()});
  return cases;
}

TEST(PredictContractTest, ExplainMatchesPredictOnGoldenModels) {
  for (const GoldenCase& golden : GoldenCases()) {
    StatusOr<CrossMineClassifier> loaded = LoadModel(
        golden.db,
        std::string(CROSSMINE_SOURCE_DIR) + "/tests/golden/" + golden.file);
    ASSERT_TRUE(loaded.ok()) << golden.file << ": "
                             << loaded.status().ToString();
    CrossMineClassifier& model = *loaded;
    const std::vector<TupleId> all = AllIds(golden.db);
    // Explain's satisfied list is every clause's own verdict.
    std::vector<std::vector<uint8_t>> flags;
    for (const Clause& clause : model.clauses()) {
      flags.push_back(EvaluateClause(golden.db, clause, all));
    }
    for (PredictionMode mode : kModes) {
      model.set_prediction_mode(mode);
      std::vector<ClassId> batch = model.Predict(golden.db, all);
      for (TupleId id : all) {
        CrossMineClassifier::Explanation ex = model.Explain(golden.db, id);
        ASSERT_EQ(ex.predicted, model.Predict(golden.db, {id})[0])
            << golden.file << " mode " << static_cast<int>(mode) << " id "
            << id;
        EXPECT_EQ(ex.predicted, batch[id]);
        std::vector<int> want;
        for (size_t i = 0; i < flags.size(); ++i) {
          if (flags[i][id]) want.push_back(static_cast<int>(i));
        }
        EXPECT_EQ(ex.satisfied, want);
        if (ex.clause_index >= 0) {
          EXPECT_EQ(model.clauses()[static_cast<size_t>(ex.clause_index)]
                        .predicted_class,
                    ex.predicted);
        } else if (mode != PredictionMode::kWeightedVote) {
          EXPECT_TRUE(ex.satisfied.empty());
          EXPECT_EQ(ex.predicted, model.default_class());
        }
      }
    }
  }
}

}  // namespace
}  // namespace crossmine
