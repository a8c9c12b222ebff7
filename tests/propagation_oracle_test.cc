// Brute-force referee for the pair-based tuple ID propagation: on random
// databases, every edge is propagated from random source idsets (dead ids
// included) and checked against a std::set built per destination tuple by
// a nested-loop join, together with the volume, the §4.3 guard verdicts and
// the refresh-equals-fresh invariant the training cache relies on.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

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
};

/// The oracle: per destination tuple, the alive ids of every non-empty
/// source tuple whose join value equals its own (NULL never matches).
std::vector<std::set<TupleId>> OracleSets(const Database& db,
                                          const JoinEdge& edge,
                                          const IdPairs& src,
                                          const std::vector<uint8_t>* alive,
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
        if (alive == nullptr || (*alive)[id]) out[u].insert(id);
      }
    }
    if (feeders > 1) ++coverage->merged_values;
  }
  return out;
}

/// Propagates `src` along `edge` and checks pairs, volume and both guards
/// against the oracle, then checks that refreshing under a shrunken mask
/// equals a fresh propagation under it.
void ExpectEdgeMatchesOracle(const Database& db, const JoinEdge& edge,
                             const IdPairs& src,
                             const std::vector<uint8_t>* alive,
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
  EXPECT_EQ(got.total_ids, total);

  // max_total_ids: the exact volume passes, one less rejects with nothing
  // allocated (a limit of 0 means unlimited).
  PropagationLimits limits;
  limits.max_total_ids = total;
  EXPECT_TRUE(PropagateIds(db, edge, src, alive, limits).ok);
  if (total > 1) {
    limits.max_total_ids = total - 1;
    PropagationResult rejected = PropagateIds(db, edge, src, alive, limits);
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.pairs.capacity(), 0u);
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
        PropagateIds(db, edge, src, &shrunk, refresh_limits);
    EXPECT_EQ(RefreshPropagation(&refreshed, shrunk, refresh_limits),
              fresh.ok);
    EXPECT_EQ(refreshed.ok, fresh.ok);
    EXPECT_EQ(refreshed.pairs, fresh.pairs);
    if (fresh.ok) {
      EXPECT_EQ(refreshed.total_ids, fresh.total_ids);
    }
  }
}

/// Checks every edge of `db` from random source pairs, unfiltered and under
/// a sampling-like mask, plus one chained hop from a propagated result.
void ExpectDatabaseMatchesOracle(const Database& db, uint64_t seed,
                                 Coverage* coverage) {
  const TupleId n = db.target_relation().num_tuples();
  Rng rng(seed ^ 0x9e3779b9);
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
    ExpectEdgeMatchesOracle(db, edge, src, nullptr, shrunk, coverage);
    ExpectEdgeMatchesOracle(db, edge, src, &alive, shrunk, coverage);

    PropagationResult hop = PropagateIds(db, edge, src, &alive);
    for (int32_t e2 : db.OutEdges(edge.to_rel)) {
      ExpectEdgeMatchesOracle(db, db.edges()[static_cast<size_t>(e2)],
                              hop.pairs, &alive, shrunk, coverage);
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
}

// Relation widths past 2^16: the keys of an FK -> PK hop then vary in byte
// 2 of both halves (value index and id), as do the (tuple, value run)
// destinations of the PK -> FK hop, so both of `PropagateIds`' sorts take
// the radix path over multi-byte keys. The oracle here is a value-keyed
// std::map join, since a nested loop over 10^5 x 10^5 tuples is too slow.
TEST(PropagationOracleTest, WideRelationsMatchMapJoin) {
  constexpr TupleId kKeys = 70000;
  constexpr TupleId kRefs = 80000;
  constexpr uint32_t kIds = 200000;
  RelationSchema keys_schema("Keys");
  keys_schema.AddPrimaryKey("id");
  RelationSchema refs_schema("Refs");
  refs_schema.AddPrimaryKey("id");
  refs_schema.AddForeignKey("key", 0);
  Database db;
  const RelId keys = db.AddRelation(keys_schema);
  const RelId refs = db.AddRelation(refs_schema);
  Rng rng(0x70000);
  for (TupleId t = 0; t < kKeys; ++t) {
    db.mutable_relation(keys).SetInt(db.mutable_relation(keys).AddTuple(), 0,
                                     t);
  }
  for (TupleId t = 0; t < kRefs; ++t) {
    Relation& rel = db.mutable_relation(refs);
    rel.SetInt(rel.AddTuple(), 0, t);
    rel.SetInt(t, 1,
               rng.Bernoulli(0.05) ? kNullValue
                                   : static_cast<int64_t>(rng.Uniform(kKeys)));
  }
  db.SetTarget(keys);
  db.SetLabels(std::vector<ClassId>(kKeys, 0), 2);
  ASSERT_TRUE(db.Finalize().ok());

  PropagationScratch scratch;
  int checked = 0;
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

    const uint64_t key_sorts = scratch.key_sorts;
    const uint64_t dest_sorts = scratch.dest_sorts;
    PropagationResult got =
        PropagateIds(db, edge, src, nullptr, {}, &scratch);
    ASSERT_TRUE(got.ok);
    EXPECT_EQ(got.total_ids, want.size());
    EXPECT_TRUE(got.pairs == want) << got.pairs.size() << " pairs vs "
                                   << want.size() << " expected";
    if (edge.kind == JoinKind::kFkToPk) {
      EXPECT_EQ(scratch.key_sorts, key_sorts + 1) << "FK -> PK keys unsorted";
      EXPECT_GT(scratch.keys.size(), size_t{1} << 16);
      ++checked;
    } else {
      ASSERT_EQ(edge.kind, JoinKind::kPkToFk);
      EXPECT_EQ(scratch.dest_sorts, dest_sorts + 1)
          << "PK -> FK destinations unsorted";
      EXPECT_GT(scratch.dests.size(), size_t{1} << 16);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
  EXPECT_GT(scratch.key_sorts, 0u) << "the key radix sort never ran";
  EXPECT_GT(scratch.dest_sorts, 0u) << "the destination radix sort never ran";
}

}  // namespace
}  // namespace crossmine
