// Shard subsystem tests: the partitioner's carving invariants (disjoint
// cover, zero-copy aliasing, fingerprint equality)
// and the sharded trainer's determinism contract — the merged model depends
// only on (database, train_ids, options), never on thread count, scheduling,
// or the order train ids arrive in; one shard reproduces unsharded training
// byte-identically.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "shard/partition.h"
#include "shard/sharded_trainer.h"

namespace crossmine {
namespace {

Database MakeDb(uint64_t seed, int relations = 8, int tuples = 150) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = relations;
  cfg.expected_tuples = tuples;
  cfg.seed = seed;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Serialized bytes of the model a given trainer produces — the byte-level
/// equality oracle every determinism test reduces to.
std::string ModelBytes(const CrossMineClassifier& model, const Database& db,
                       const char* tag) {
  std::string path = ::testing::TempDir() + "/shard_" + tag + ".cmm";
  std::filesystem::remove(path);
  EXPECT_TRUE(SaveModel(model, db, path).ok());
  return ReadFile(path);
}

std::string ShardedBytes(const Database& db, const std::vector<TupleId>& ids,
                         CrossMineOptions base, shard::ShardOptions sopts,
                         const char* tag) {
  shard::ShardedClassifier model(base, sopts);
  EXPECT_TRUE(model.Train(db, ids).ok());
  return ModelBytes(model.merged_model(), db, tag);
}

// ---------------------------------------------------------------------------
// Partitioner

TEST(ShardOfKeyTest, DeterministicAndInRange) {
  for (int shards : {1, 2, 4, 7}) {
    std::vector<int> hits(shards, 0);
    for (int64_t key = -50; key < 5000; ++key) {
      int32_t s = shard::ShardOfKey(key, shards);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, shards);
      EXPECT_EQ(s, shard::ShardOfKey(key, shards));
      ++hits[s];
    }
    // The mix must actually spread sequential keys, not funnel them.
    for (int h : hits) EXPECT_GT(h, 0) << "empty bucket at K=" << shards;
  }
}

TEST(PartitionTest, SingleShardKeepsAllTrainIdsInOrder) {
  Database db = MakeDb(11);
  std::vector<TupleId> ids = AllIds(db);
  StatusOr<std::vector<shard::Shard>> parts =
      shard::PartitionDatabase(db, ids, /*num_shards=*/1);
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0].parent_ids, ids);
  EXPECT_EQ((*parts)[0].db.target_relation().num_tuples(),
            db.target_relation().num_tuples());
}

TEST(PartitionTest, ShardsFormDisjointCoverWithMatchingLabels) {
  Database db = MakeDb(12);
  std::vector<TupleId> ids = AllIds(db);
  StatusOr<std::vector<shard::Shard>> parts =
      shard::PartitionDatabase(db, ids, /*num_shards=*/4);
  ASSERT_TRUE(parts.ok());
  std::vector<TupleId> seen;
  for (const shard::Shard& s : *parts) {
    EXPECT_TRUE(std::is_sorted(s.parent_ids.begin(), s.parent_ids.end()));
    ASSERT_EQ(s.db.labels().size(), s.parent_ids.size());
    for (size_t i = 0; i < s.parent_ids.size(); ++i) {
      EXPECT_EQ(s.db.labels()[i], db.labels()[s.parent_ids[i]]);
    }
    seen.insert(seen.end(), s.parent_ids.begin(), s.parent_ids.end());
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, ids);  // every train id in exactly one shard
}

TEST(PartitionTest, SharedModeAliasesParentColumns) {
  Database db = MakeDb(13);
  StatusOr<std::vector<shard::Shard>> parts =
      shard::PartitionDatabase(db, AllIds(db), /*num_shards=*/2);
  ASSERT_TRUE(parts.ok());
  int aliased = 0;
  for (const shard::Shard& s : *parts) {
    for (RelId r = 0; r < db.num_relations(); ++r) {
      if (r == db.target()) continue;
      const Relation& parent = db.relation(r);
      const Relation& carved = s.db.relation(r);
      ASSERT_EQ(carved.num_tuples(), parent.num_tuples());
      for (AttrId a = 0; a < parent.schema().num_attrs(); ++a) {
        if (!parent.schema().IsIntAttr(a)) continue;
        // Zero-copy: the shard column points at the parent's bytes.
        EXPECT_EQ(carved.IntColumn(a).data(), parent.IntColumn(a).data());
        ++aliased;
      }
    }
  }
  EXPECT_GT(aliased, 0);
}

TEST(PartitionTest, ShardFingerprintMatchesParent) {
  Database db = MakeDb(15);
  StatusOr<std::vector<shard::Shard>> parts =
      shard::PartitionDatabase(db, AllIds(db), /*num_shards=*/3);
  ASSERT_TRUE(parts.ok());
  for (const shard::Shard& s : *parts) {
    // Clauses learned on a shard must resolve identically on the parent.
    EXPECT_EQ(SchemaFingerprint(s.db), SchemaFingerprint(db));
  }
}

TEST(PartitionTest, RejectsBadArguments) {
  Database db = MakeDb(16);
  EXPECT_FALSE(shard::PartitionDatabase(db, AllIds(db), 0).ok());
  std::vector<TupleId> beyond = {db.target_relation().num_tuples()};
  EXPECT_FALSE(shard::PartitionDatabase(db, beyond, 2).ok());
}

// ---------------------------------------------------------------------------
// Sharded trainer

TEST(ShardedTrainerTest, OneShardMatchesUnshardedByteIdentically) {
  Database db = MakeDb(21);
  std::vector<TupleId> ids = AllIds(db);
  CrossMineOptions base;
  CrossMineClassifier plain(base);
  ASSERT_TRUE(plain.Train(db, ids).ok());
  std::string unsharded = ModelBytes(plain, db, "unsharded");
  ASSERT_FALSE(unsharded.empty());

  shard::ShardOptions sopts;
  sopts.num_shards = 1;
  EXPECT_EQ(ShardedBytes(db, ids, base, sopts, "k1"), unsharded);

  // Sampling path too: the shard sees negatives in the same order, so the
  // seed-derived subsample picks the same tuples.
  CrossMineOptions sampling = base;
  sampling.use_sampling = true;
  CrossMineClassifier plain_sampling(sampling);
  ASSERT_TRUE(plain_sampling.Train(db, ids).ok());
  EXPECT_EQ(ShardedBytes(db, ids, sampling, sopts, "k1s"),
            ModelBytes(plain_sampling, db, "unsharded_s"));
}

TEST(ShardedTrainerTest, ModelInvariantToThreadCount) {
  // K>1 on all three paper datasets: byte-identical across thread counts
  // and across repeated runs.
  struct Named {
    const char* tag;
    StatusOr<Database> db;
  };
  Named datasets[] = {
      {"synthetic", MakeDb(22)},
      {"financial", datagen::GenerateFinancialDatabase({})},
      {"mutagenesis", datagen::GenerateMutagenesisDatabase({})},
  };
  for (Named& d : datasets) {
    ASSERT_TRUE(d.db.ok()) << d.tag << ": " << d.db.status().ToString();
    std::vector<TupleId> ids = AllIds(*d.db);
    for (int shards : {2, 4}) {
      shard::ShardOptions sopts;
      sopts.num_shards = shards;
      CrossMineOptions base;
      base.num_threads = 1;
      std::string reference = ShardedBytes(*d.db, ids, base, sopts, "t1");
      ASSERT_FALSE(reference.empty());
      for (int threads : {2, 4, 4}) {
        base.num_threads = threads;
        EXPECT_EQ(ShardedBytes(*d.db, ids, base, sopts, "tn"), reference)
            << d.tag << " K=" << shards << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedTrainerTest, ModelInvariantToTrainIdOrder) {
  Database db = MakeDb(23);
  std::vector<TupleId> ids = AllIds(db);
  shard::ShardOptions sopts;
  sopts.num_shards = 4;
  std::string reference = ShardedBytes(db, ids, {}, sopts, "fwd");
  std::reverse(ids.begin(), ids.end());
  EXPECT_EQ(ShardedBytes(db, ids, {}, sopts, "rev"), reference);
}

TEST(ShardedTrainerTest, MergeSampleIsDeterministic) {
  Database db = MakeDb(25);
  std::vector<TupleId> ids = AllIds(db);
  shard::ShardOptions sopts;
  sopts.num_shards = 2;
  sopts.merge_sample = 64;
  std::string first = ShardedBytes(db, ids, {}, sopts, "ms1");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(ShardedBytes(db, ids, {}, sopts, "ms2"), first);
}

TEST(ShardedTrainerTest, TrainsOnASubsetAndPredictsTheRest) {
  Database db = MakeDb(27);
  std::vector<TupleId> all = AllIds(db);
  std::vector<TupleId> train(all.begin(), all.begin() + all.size() * 2 / 3);
  std::vector<TupleId> test(all.begin() + all.size() * 2 / 3, all.end());
  shard::ShardOptions sopts;
  sopts.num_shards = 2;
  shard::ShardedClassifier model({}, sopts);
  ASSERT_TRUE(model.Train(db, train).ok());
  StatusOr<std::vector<ClassId>> pred = model.PredictBatchChecked(db, test);
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_EQ(pred->size(), test.size());
}

TEST(ShardedTrainerTest, MetricsRollUp) {
  Database db = MakeDb(28);
  shard::ShardOptions sopts;
  sopts.num_shards = 4;
  shard::ShardedClassifier model({}, sopts);
  MetricsRegistry metrics;
  model.set_metrics(&metrics);
  ASSERT_TRUE(model.Train(db, AllIds(db)).ok());
  MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.at("train.shard.count"), 4.0);
  EXPECT_GT(snap.at("train.shard.clauses_in"), 0.0);
  EXPECT_GT(snap.at("train.shard.clauses_kept"), 0.0);
  EXPECT_LE(snap.at("train.shard.clauses_kept"),
            snap.at("train.shard.clauses_in"));
  EXPECT_GT(snap.at("train.shard.train_seconds"), 0.0);
  // Per-shard rollup carries the inner trainer's phase metrics along.
  EXPECT_GT(snap.at("train.clauses_built"), 0.0);
  // A shard's wall time is accounted under train.shard.train_seconds, not
  // double-counted into the sharded trainer's own wall timer.
  EXPECT_EQ(model.stats().num_shards, 4);
  EXPECT_EQ(model.stats().clauses_kept,
            static_cast<uint64_t>(model.merged_model().clauses().size()));
}

TEST(ShardedTrainerTest, RejectsBadTrainSets) {
  Database db = MakeDb(29);
  shard::ShardedClassifier model;
  EXPECT_FALSE(model.Train(db, {}).ok());
  EXPECT_FALSE(
      model.Train(db, {db.target_relation().num_tuples()}).ok());
}

// ---------------------------------------------------------------------------
// AbsorbSnapshot (the roll-up primitive the trainer depends on)

TEST(AbsorbSnapshotTest, RoutesTimersAndCounters) {
  MetricsRegistry into;
  MetricsSnapshot snap;
  snap["train.some_count"] = 7;
  snap["train.some_seconds"] = 1.5;
  AbsorbSnapshot(snap, &into);
  AbsorbSnapshot(snap, &into);
  MetricsSnapshot out = into.Snapshot();
  EXPECT_EQ(out.at("train.some_count"), 14.0);
  EXPECT_NEAR(out.at("train.some_seconds"), 3.0, 1e-9);
}

}  // namespace
}  // namespace crossmine
