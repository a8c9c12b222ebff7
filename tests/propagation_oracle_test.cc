// Brute-force referee for the pair-based tuple ID propagation: on random
// databases, every edge is propagated from random source idsets (dead ids
// included) and checked against a std::set built per destination tuple by
// a nested-loop join, together with the volume, the §4.3 guard verdicts of
// the materialized hop and of both look-ahead views, and the
// refresh-equals-fresh invariant the training cache relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/propagation.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::MakeRandomDatabase;
using testing::RandomAliveMask;

/// Random source pairs over `rel`: each tuple carries each target id with
/// probability `density`.
IdPairs RandomSourcePairs(Rng* rng, const Relation& rel, TupleId num_targets,
                          double density) {
  IdPairs pairs;
  for (TupleId t = 0; t < rel.num_tuples(); ++t) {
    for (TupleId id = 0; id < num_targets; ++id) {
      if (rng->Bernoulli(density)) pairs.push_back(MakeIdPair(t, id));
    }
  }
  return pairs;
}

/// What the oracle saw across one test, so it can assert its own coverage.
struct Coverage {
  int fk_fk_edges = 0;
  int null_sources = 0;    ///< non-empty source tuples with a NULL join value
  int merged_values = 0;   ///< destinations fed by 2+ non-empty source tuples
  int rejections = 0;
  int compactions = 0;     ///< raw views larger than an exact cap they pass
};

/// The oracle: per destination tuple, the alive ids of every non-empty
/// source tuple whose join value equals its own (NULL never matches).
std::vector<std::set<TupleId>> OracleSets(const Database& db,
                                          const JoinEdge& edge,
                                          const IdPairs& src,
                                          const std::vector<uint8_t>& alive,
                                          Coverage* coverage) {
  const Relation& from = db.relation(edge.from_rel);
  const Relation& to = db.relation(edge.to_rel);
  std::vector<std::set<TupleId>> src_sets(from.num_tuples());
  for (IdPair p : src) src_sets[PairTuple(p)].insert(PairId(p));
  for (TupleId t = 0; t < from.num_tuples(); ++t) {
    if (!src_sets[t].empty() && from.Int(t, edge.from_attr) == kNullValue) {
      ++coverage->null_sources;
    }
  }
  std::vector<std::set<TupleId>> out(to.num_tuples());
  for (TupleId u = 0; u < to.num_tuples(); ++u) {
    const int64_t uv = to.Int(u, edge.to_attr);
    if (uv == kNullValue) continue;
    int feeders = 0;
    for (TupleId t = 0; t < from.num_tuples(); ++t) {
      if (from.Int(t, edge.from_attr) != uv || src_sets[t].empty()) continue;
      ++feeders;
      for (TupleId id : src_sets[t]) {
        if (alive[id]) out[u].insert(id);
      }
    }
    if (feeders > 1) ++coverage->merged_values;
  }
  return out;
}

/// Propagates `src` along `edge`, materialized and as both views, and
/// checks pairs, volume and both guards against the oracle, then checks
/// that refreshing under a shrunken mask equals a fresh propagation under
/// it.
void ExpectEdgeMatchesOracle(const Database& db, const JoinEdge& edge,
                             const IdPairs& src,
                             const std::vector<uint8_t>& alive,
                             const std::vector<uint8_t>& shrunk,
                             Coverage* coverage) {
  std::vector<std::set<TupleId>> oracle =
      OracleSets(db, edge, src, alive, coverage);
  IdPairs want;
  uint64_t total = 0, reached = 0;
  for (TupleId u = 0; u < oracle.size(); ++u) {
    for (TupleId id : oracle[u]) want.push_back(MakeIdPair(u, id));
    total += oracle[u].size();
    reached += oracle[u].empty() ? 0 : 1;
  }

  PropagationResult got = PropagateIds(db, edge, src, alive);
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.pairs, want);
  PropagationScratch scratch;
  ASSERT_TRUE(PropagateView(db, edge, src, alive, {}, true, &scratch));
  EXPECT_EQ(scratch.view, want) << "distinct view";
  ASSERT_TRUE(PropagateView(db, edge, src, alive, {}, false, &scratch));
  const size_t raw = scratch.view.size();

  // max_total_ids: the exact volume passes, one less rejects (a limit of 0
  // means unlimited), and a rejected materialization allocates nothing. A
  // raw view past the exact volume is compacted while it is written.
  PropagationLimits limits;
  limits.max_total_ids = total;
  EXPECT_TRUE(PropagateIds(db, edge, src, alive, limits).ok);
  for (bool distinct : {false, true}) {
    EXPECT_TRUE(
        PropagateView(db, edge, src, alive, limits, distinct, &scratch))
        << "distinct " << distinct;
  }
  EXPECT_EQ(scratch.view, want) << "distinct view at the exact cap";
  if (total > 0 && raw > total) ++coverage->compactions;
  if (total > 1) {
    limits.max_total_ids = total - 1;
    PropagationResult rejected = PropagateIds(db, edge, src, alive, limits);
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.pairs.capacity(), 0u);
    for (bool distinct : {false, true}) {
      EXPECT_FALSE(
          PropagateView(db, edge, src, alive, limits, distinct, &scratch))
          << "distinct " << distinct;
    }
    ++coverage->rejections;
  }
  // max_avg_fanout: judged over non-empty destination tuples only.
  if (reached > 0) {
    const double fanout =
        static_cast<double>(total) / static_cast<double>(reached);
    PropagationLimits fan;
    fan.max_avg_fanout = fanout;
    EXPECT_TRUE(PropagateIds(db, edge, src, alive, fan).ok);
    fan.max_avg_fanout = fanout * 0.999;
    PropagationResult rejected = PropagateIds(db, edge, src, alive, fan);
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.pairs.capacity(), 0u);
  }

  // Refresh under a mask that only lost members equals a fresh run, guard
  // verdicts included.
  for (uint64_t cap : {uint64_t{0}, total / 2 + 1}) {
    PropagationLimits refresh_limits;
    refresh_limits.max_total_ids = cap;
    PropagationResult refreshed = got;
    PropagationResult fresh =
        PropagateIds(db, edge, src, shrunk, refresh_limits);
    EXPECT_EQ(RefreshPropagation(&refreshed, shrunk, refresh_limits),
              fresh.ok);
    EXPECT_EQ(refreshed.ok, fresh.ok);
    EXPECT_EQ(refreshed.pairs, fresh.pairs);
  }
}

/// Checks every edge of `db` from random source pairs, unfiltered and under
/// a sampling-like mask, plus one chained hop from a propagated result.
void ExpectDatabaseMatchesOracle(const Database& db, uint64_t seed,
                                 Coverage* coverage) {
  const TupleId n = db.target_relation().num_tuples();
  Rng rng(seed ^ 0x9e3779b9);
  const std::vector<uint8_t> all(n, 1);
  std::vector<uint8_t> alive = RandomAliveMask(seed ^ 0xa11e, n, 0.4);
  // Shrink `alive` the way appended literals do: members only leave.
  std::vector<uint8_t> shrunk = alive;
  for (auto& a : shrunk) a = a && rng.Bernoulli(0.6);

  for (const JoinEdge& edge : db.edges()) {
    SCOPED_TRACE(::testing::Message() << "edge " << edge.from_rel << "."
                                      << edge.from_attr << " -> "
                                      << edge.to_rel << "." << edge.to_attr);
    if (edge.kind == JoinKind::kFkToFk) ++coverage->fk_fk_edges;
    const IdPairs src =
        RandomSourcePairs(&rng, db.relation(edge.from_rel), n, 0.2);
    ExpectEdgeMatchesOracle(db, edge, src, all, shrunk, coverage);
    ExpectEdgeMatchesOracle(db, edge, src, alive, shrunk, coverage);

    PropagationResult hop = PropagateIds(db, edge, src, alive);
    for (int32_t e2 : db.OutEdges(edge.to_rel)) {
      ExpectEdgeMatchesOracle(db, db.edges()[static_cast<size_t>(e2)],
                              hop.pairs, alive, shrunk, coverage);
    }
  }
}

TEST(PropagationOracleTest, PairsVolumeGuardsAndRefreshMatchBruteForce) {
  Coverage coverage;
  for (uint64_t seed = 800; seed < 812; ++seed) {
    SCOPED_TRACE(seed);
    // Plain; skewed fan-in (FK values drawn from 6, so many tuples share a
    // join value); 40 % NULL foreign keys; four relations for FK-FK edges.
    ExpectDatabaseMatchesOracle(MakeRandomDatabase(seed), seed, &coverage);
    ExpectDatabaseMatchesOracle(
        MakeRandomDatabase(seed, 3, 60, /*fk_values=*/6), seed, &coverage);
    ExpectDatabaseMatchesOracle(
        MakeRandomDatabase(seed, 3, 30, 0, /*null_fraction=*/0.4), seed,
        &coverage);
    ExpectDatabaseMatchesOracle(MakeRandomDatabase(seed, /*num_relations=*/4),
                                seed, &coverage);
  }
  EXPECT_GT(coverage.fk_fk_edges, 0) << "no FK-FK edge was checked";
  EXPECT_GT(coverage.null_sources, 0) << "no NULL join value carried ids";
  EXPECT_GT(coverage.merged_values, 0) << "no destination merged sources";
  EXPECT_GT(coverage.rejections, 0) << "no guard rejection was checked";
  EXPECT_GT(coverage.compactions, 0) << "no view was compacted and passed";
}

/// A target relation of `keys` primary keys and a relation of `refs` tuples
/// with `fks` foreign keys, each naming a uniform random key, or NULL with
/// probability `null_fraction`.
Database MakeKeysAndRefs(Rng* rng, TupleId keys, TupleId refs,
                         double null_fraction, int fks = 1) {
  RelationSchema keys_schema("Keys");
  keys_schema.AddPrimaryKey("id");
  RelationSchema refs_schema("Refs");
  refs_schema.AddPrimaryKey("id");
  for (int f = 0; f < fks; ++f) {
    refs_schema.AddForeignKey("key" + std::to_string(f), 0);
  }
  Database db;
  Relation& key_rel = db.mutable_relation(db.AddRelation(keys_schema));
  for (TupleId t = 0; t < keys; ++t) key_rel.SetInt(key_rel.AddTuple(), 0, t);
  Relation& ref_rel = db.mutable_relation(db.AddRelation(refs_schema));
  for (TupleId t = 0; t < refs; ++t) {
    ref_rel.SetInt(ref_rel.AddTuple(), 0, t);
    for (AttrId f = 1; f <= fks; ++f) {
      ref_rel.SetInt(t, f,
                     rng->Bernoulli(null_fraction)
                         ? kNullValue
                         : static_cast<int64_t>(rng->Uniform(keys)));
    }
  }
  db.SetTarget(0);
  db.SetLabels(std::vector<ClassId>(keys, 0), 2);
  CM_CHECK(db.Finalize().ok());
  return db;
}

/// The edge of `db` of `kind`.
const JoinEdge& EdgeOfKind(const Database& db, JoinKind kind) {
  for (const JoinEdge& e : db.edges()) {
    if (e.kind == kind) return e;
  }
  CM_CHECK(false);
  return db.edges().front();
}

// Relation widths past 2^16: the (tuple, id) pairs of either hop then vary
// in byte 2 of both halves, and neither hop's view arrives sorted, so the
// radix sort runs over multi-byte keys in both edge directions. The oracle
// here is a value-keyed std::map join, since a nested loop over
// 10^5 x 10^5 tuples is too slow.
TEST(PropagationOracleTest, WideRelationsMatchMapJoin) {
  constexpr uint32_t kIds = 200000;
  Rng rng(0x70000);
  const Database db = MakeKeysAndRefs(&rng, 70000, 80000, 0.05);

  const std::vector<uint8_t> all(kIds, 1);
  PropagationScratch scratch;
  int sorts = 0;
  for (const JoinEdge& edge : db.edges()) {
    SCOPED_TRACE(::testing::Message() << "edge " << edge.from_rel << " -> "
                                      << edge.to_rel);
    const Relation& from = db.relation(edge.from_rel);
    const Relation& to = db.relation(edge.to_rel);
    // Nearly every source tuple carries one or two ids, so more than 2^16
    // join values are reached.
    IdPairs src;
    std::map<int64_t, std::set<uint32_t>> by_value;
    for (TupleId t = 0; t < from.num_tuples(); ++t) {
      if (rng.Bernoulli(0.03)) continue;
      std::set<uint32_t> ids;
      for (int k = 0; k < 2; ++k) {
        ids.insert(static_cast<uint32_t>(rng.Uniform(kIds)));
      }
      for (uint32_t id : ids) src.push_back(MakeIdPair(t, id));
      const int64_t value = from.Int(t, edge.from_attr);
      if (value != kNullValue) by_value[value].insert(ids.begin(), ids.end());
    }
    IdPairs want;
    for (TupleId u = 0; u < to.num_tuples(); ++u) {
      auto it = by_value.find(to.Int(u, edge.to_attr));
      if (to.Int(u, edge.to_attr) == kNullValue || it == by_value.end()) {
        continue;
      }
      for (uint32_t id : it->second) want.push_back(MakeIdPair(u, id));
    }

    ASSERT_TRUE(PropagateView(db, edge, src, all, {}, false, &scratch));
    EXPECT_GT(scratch.view.size(), size_t{1} << 16);
    if (!std::is_sorted(scratch.view.begin(), scratch.view.end())) ++sorts;
    PropagationResult got = PropagateIds(db, edge, src, all, {}, &scratch);
    ASSERT_TRUE(got.ok);
    EXPECT_TRUE(got.pairs == want) << got.pairs.size() << " pairs vs "
                                   << want.size() << " expected";
  }
  EXPECT_EQ(db.edges().size(), 2u);
  EXPECT_EQ(sorts, 2) << "a view arrived sorted, so its radix sort was skipped";
}

// `max_total_ids` is a memory guard: a PK -> FK hop of 10^5 pairs under a
// cap of 1 % of them is rejected while its view is a small multiple of the
// cap, by either view and by the materialized hop.
TEST(PropagationOracleTest, RejectedHopHoldsABoundedView) {
  constexpr TupleId kKeys = 1000;
  Rng rng(0x100000);
  const Database db = MakeKeysAndRefs(&rng, kKeys, 100000, 0.0);
  const JoinEdge& edge = EdgeOfKind(db, JoinKind::kPkToFk);
  const std::vector<uint8_t> all(kKeys, 1);
  const IdPairs src = IdentityPairs(all);

  const uint64_t total = PropagateIds(db, edge, src, all).pairs.size();
  ASSERT_EQ(total, 100000u);
  PropagationLimits limits;
  limits.max_total_ids = total / 100;
  const size_t bound = 10 * limits.max_total_ids;
  for (bool distinct : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "distinct " << distinct);
    PropagationScratch scratch;
    EXPECT_FALSE(
        PropagateView(db, edge, src, all, limits, distinct, &scratch));
    EXPECT_LT(scratch.view.capacity(), bound);
    EXPECT_LT(scratch.tmp.capacity(), bound);
  }
  PropagationScratch scratch;
  PropagationResult rejected =
      PropagateIds(db, edge, src, all, limits, &scratch);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.pairs.capacity(), 0u);
  EXPECT_LT(scratch.view.capacity(), bound);
  EXPECT_LT(scratch.tmp.capacity(), bound);
}

// On an FK-FK edge, every source tuple sharing a join value writes its ids
// onto every destination tuple of that value: here ~30 x 30 tuples per
// value, each carrying the same 10 ids, write ~9 x 10^5 pairs for 3 x 10^4
// distinct ones. With no cap, the view is still compacted as it grows, so
// it stays near 2^16 pairs, by either view.
TEST(PropagationOracleTest, FkFkRepeatsAreCompactedWhileWritten) {
  constexpr TupleId kKeys = 100;
  constexpr uint32_t kIds = 10;
  Rng rng(0x100001);
  const Database db = MakeKeysAndRefs(&rng, kKeys, 3000, 0.0, /*fks=*/2);
  const JoinEdge& edge = EdgeOfKind(db, JoinKind::kFkToFk);
  const Relation& from = db.relation(edge.from_rel);
  const Relation& to = db.relation(edge.to_rel);
  IdPairs src;
  std::set<int64_t> values;
  for (TupleId t = 0; t < from.num_tuples(); ++t) {
    for (uint32_t id = 0; id < kIds; ++id) src.push_back(MakeIdPair(t, id));
    values.insert(from.Int(t, edge.from_attr));
  }
  const std::vector<uint8_t> all(kKeys, 1);
  IdPairs want;
  for (TupleId u = 0; u < to.num_tuples(); ++u) {
    if (!values.count(to.Int(u, edge.to_attr))) continue;
    for (uint32_t id = 0; id < kIds; ++id) want.push_back(MakeIdPair(u, id));
  }

  const size_t bound = size_t{1} << 18;
  for (bool distinct : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "distinct " << distinct);
    PropagationScratch scratch;
    ASSERT_TRUE(PropagateView(db, edge, src, all, {}, distinct, &scratch));
    EXPECT_LT(scratch.view.capacity(), bound);
    EXPECT_LT(scratch.tmp.capacity(), bound);
    if (distinct) {
      EXPECT_EQ(scratch.view, want);
    }
  }
  EXPECT_EQ(PropagateIds(db, edge, src, all).pairs, want);
}

}  // namespace
}  // namespace crossmine
