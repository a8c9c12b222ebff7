// IndexCache behavior and unified-index equivalence. The randomized suite
// pins the CSR index to the semantics of the retired per-relation
// `HashIndex` (a value -> tuple-order-posting hash map) from singleton to
// dense postings; the budget tests pin the LRU/eviction/rebuild
// accounting and prove that thrash-level budgets change *when* indexes
// exist, never what they contain — trained models stay byte-identical, and
// a `.cmdb`-backed train never materializes a borrowed column even while
// eviction drops and re-faults its pages.

#include "relational/index_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/synthetic.h"
#include "relational/database.h"
#include "storage/storage.h"
#include "test_util.h"

namespace crossmine {
namespace {

/// Applies an index-memory budget for one scope and restores the previous
/// one on exit (the IndexCache budget is process-global).
class ScopedIndexBudget {
 public:
  explicit ScopedIndexBudget(uint64_t bytes)
      : previous_(IndexCache::Global().budget_bytes()) {
    IndexCache::Global().SetBudgetBytes(bytes);
  }
  ~ScopedIndexBudget() { IndexCache::Global().SetBudgetBytes(previous_); }

 private:
  uint64_t previous_;
};

/// What the old HashIndex held: value -> tuple ids in insertion (= tuple)
/// order, NULLs skipped. std::map iteration gives the values ascending,
/// matching the CSR layout, so equality here is exactly the old contract.
std::map<int64_t, std::vector<TupleId>> HashReference(const Relation& rel,
                                                      AttrId a) {
  std::map<int64_t, std::vector<TupleId>> ref;
  const Column<int64_t>& col = rel.IntColumn(a);
  for (TupleId t = 0; t < rel.num_tuples(); ++t) {
    if (col[t] != kNullValue) ref[col[t]].push_back(t);
  }
  return ref;
}

/// Full equivalence check of the unified index against the hash reference:
/// same value set, same counts, same posting order (key attributes; a
/// categorical index keeps counts only) and FindValue hit/miss behavior.
void CheckHashEquivalence(const Relation& rel, AttrId a) {
  std::shared_ptr<const AttrIndex> handle = rel.GetAttrIndex(a);
  const AttrIndex& index = *handle;
  std::map<int64_t, std::vector<TupleId>> ref = HashReference(rel, a);
  const bool categorical = rel.schema().attr(a).kind == AttrKind::kCategorical;
  ASSERT_EQ(index.has_postings(), !categorical || ref.empty());

  auto it = ref.begin();
  for (size_t v = 0; v < index.num_values(); ++v) {
    if (index.posting_count(v) == 0) continue;  // direct-addressed gap
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(index.value(v), it->first);
    ASSERT_EQ(index.FindValue(it->first), v);
    ASSERT_EQ(index.posting_count(v), it->second.size());
    for (size_t i = 0; !categorical && i < it->second.size(); ++i) {
      ASSERT_EQ(index.posting(v)[i], it->second[i])
          << "posting order diverged from tuple order at value " << it->first;
    }
    // Probes between stored values must miss, like a hash probe of an
    // absent key.
    if (!ref.count(it->first + 1)) {
      EXPECT_EQ(index.FindValue(it->first + 1), AttrIndex::npos);
    }
    ++it;
  }
  EXPECT_EQ(it, ref.end()) << "values missing from the index";
  EXPECT_EQ(index.FindValue(kNullValue), AttrIndex::npos);
}

/// One target of each int attribute kind: a categorical attribute (literal
/// scoring) and a foreign key (join probes).
RelationSchema ProbeSchema() {
  RelationSchema s("Probe");
  s.AddPrimaryKey("id");      // 0
  s.AddCategorical("c");      // 1
  s.AddNumerical("x");        // 2
  s.AddForeignKey("fk", 0);   // 3
  return s;
}

TEST(IndexCacheEquivalenceTest, RandomizedAcrossPromotionBoundary) {
  // Tuple counts and cardinalities chosen to span posting sizes from
  // singletons through mid-size lists to values held by most tuples.
  const int tuple_counts[] = {8, 40, 200, 600};
  const int cardinalities[] = {1, 2, 7, 33};
  Rng rng(0x1dc5ca4eULL);
  for (int n : tuple_counts) {
    for (int k : cardinalities) {
      Relation r(ProbeSchema());
      for (int t = 0; t < n; ++t) {
        TupleId id = r.AddTuple();
        r.SetInt(id, 0, t);
        if (!rng.Bernoulli(0.1)) {
          r.SetInt(id, 1, static_cast<int64_t>(rng.Uniform(
                              static_cast<uint64_t>(k))) *
                              3);  // gaps so absent-probe checks bite
        }
        if (!rng.Bernoulli(0.1)) {
          r.SetInt(id, 3,
                   static_cast<int64_t>(rng.Uniform(
                       static_cast<uint64_t>(k))));
        }
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      CheckHashEquivalence(r, 1);
      CheckHashEquivalence(r, 3);
    }
  }
}

TEST(IndexCacheTest, ThrashBudgetRebuildsAndNeverInvalidatesHandles) {
  Relation r(ProbeSchema());
  Rng rng(77);
  for (int t = 0; t < 100; ++t) {
    TupleId id = r.AddTuple();
    r.SetInt(id, 0, t);
    r.SetInt(id, 1, static_cast<int64_t>(rng.Uniform(5)));
  }

  ScopedIndexBudget scoped(1);  // nothing fits: every insert self-evicts
  const IndexCache::Stats before = IndexCache::Global().stats();

  std::shared_ptr<const AttrIndex> first = r.GetAttrIndex(1);
  IndexCache::Stats after_first = IndexCache::Global().stats();
  EXPECT_EQ(after_first.builds, before.builds + 1);
  EXPECT_EQ(after_first.evictions, before.evictions + 1);

  // The artifact was evicted the moment it was built, yet the caller's pin
  // keeps it fully usable.
  ASSERT_EQ(testing::PresentValues(*first).size(), 5u);
  CheckHashEquivalence(r, 1);  // this Get is itself a rebuild

  std::shared_ptr<const AttrIndex> second = r.GetAttrIndex(1);
  IndexCache::Stats after_second = IndexCache::Global().stats();
  EXPECT_NE(second.get(), first.get()) << "evicted artifact served again";
  EXPECT_GE(after_second.rebuilds, before.rebuilds + 2);
  EXPECT_EQ(after_second.hits, before.hits) << "thrash budget produced a hit";
  EXPECT_EQ(testing::PresentValues(*second), testing::PresentValues(*first));
  EXPECT_EQ(second->offsets, first->offsets);
  EXPECT_EQ(second->postings, first->postings);
}

TEST(IndexCacheTest, UnlimitedBudgetHitsWithoutEvicting) {
  Relation r(ProbeSchema());
  for (int t = 0; t < 50; ++t) {
    TupleId id = r.AddTuple();
    r.SetInt(id, 0, t);
    r.SetInt(id, 1, t % 3);
  }
  const IndexCache::Stats before = IndexCache::Global().stats();
  std::shared_ptr<const AttrIndex> a = r.GetAttrIndex(1);
  std::shared_ptr<const AttrIndex> b = r.GetAttrIndex(1);
  const IndexCache::Stats after = IndexCache::Global().stats();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_GT(after.current_bytes, before.current_bytes);
  EXPECT_GE(after.peak_bytes, after.current_bytes);
}

TEST(IndexCacheTest, ShrinkingBudgetEvictsImmediately) {
  Relation r(ProbeSchema());
  for (int t = 0; t < 50; ++t) {
    TupleId id = r.AddTuple();
    r.SetInt(id, 0, t);
    r.SetInt(id, 1, t % 4);
    r.SetDouble(id, 2, t * 0.5);
  }
  std::shared_ptr<const AttrIndex> pin = r.GetAttrIndex(1);
  r.GetSortedIndex(2);
  const IndexCache::Stats full = IndexCache::Global().stats();
  ASSERT_GT(full.current_bytes, 1u);

  ScopedIndexBudget scoped(1);
  const IndexCache::Stats drained = IndexCache::Global().stats();
  EXPECT_EQ(drained.current_bytes, 0u)
      << "SetBudgetBytes did not evict immediately";
  EXPECT_GT(drained.evictions, full.evictions);
  // The pinned handle survived its eviction.
  EXPECT_EQ(testing::PresentValues(*pin).size(), 4u);
}

TEST(IndexCacheTest, StaleVersionDropIsNotAnEviction) {
  Relation r(ProbeSchema());
  TupleId t = r.AddTuple();
  r.SetInt(t, 0, 0);
  r.SetInt(t, 1, 7);
  ASSERT_EQ(testing::PresentValues(*r.GetAttrIndex(1)),
            (std::vector<int64_t>{7}));
  const IndexCache::Stats before = IndexCache::Global().stats();

  r.SetInt(t, 1, 9);  // bumps the relation version
  std::shared_ptr<const AttrIndex> rebuilt = r.GetAttrIndex(1);
  const IndexCache::Stats after = IndexCache::Global().stats();
  EXPECT_EQ(testing::PresentValues(*rebuilt), (std::vector<int64_t>{9}));
  EXPECT_EQ(after.evictions, before.evictions)
      << "version invalidation was miscounted as a budget eviction";
  // The stale entry is erased outright, so the fresh build is a first-time
  // build of the key, not a rebuild of an evicted shell.
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(after.rebuilds, before.rebuilds);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string TrainedModelBytes(const Database& db, const char* tag) {
  CrossMineClassifier model{CrossMineOptions{}};
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(db, all).ok());
  std::string path = ::testing::TempDir() + "/index_cache_" + tag + ".cmm";
  std::filesystem::remove(path);
  EXPECT_TRUE(SaveModel(model, db, path).ok());
  std::string bytes = ReadFileBytes(path);
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

TEST(IndexCacheTest, ThrashTrainedModelByteIdenticalToUnlimited) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 120;
  cfg.seed = 31;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());

  std::string unlimited = TrainedModelBytes(*db, "unlimited");

  ScopedIndexBudget scoped(1);
  const IndexCache::Stats before = IndexCache::Global().stats();
  std::string thrashed = TrainedModelBytes(*db, "thrash");
  const IndexCache::Stats after = IndexCache::Global().stats();

  EXPECT_EQ(thrashed, unlimited)
      << "eviction thrash changed the trained model";
  // And the budget really did thrash — the identical bytes came out of a
  // train that was rebuilding evicted indexes throughout.
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_GT(after.rebuilds, before.rebuilds);
}

TEST(IndexCacheTest, ColumnarTrainNeverMaterializesColumns) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 120;
  cfg.seed = 31;
  StatusOr<Database> generated = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(generated.ok());
  std::string in_memory = TrainedModelBytes(*generated, "inmem");

  std::string path = ::testing::TempDir() + "/index_cache_train.cmdb";
  std::filesystem::remove(path);
  ASSERT_TRUE(storage::SaveDatabase(*generated, path).ok());
  StatusOr<Database> loaded = storage::OpenDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Copy-on-write audit: a full train reads borrowed columns only through
  // const paths — zero materializations, at any budget.
  const uint64_t before =
      ColumnMaterializationCount().load(std::memory_order_relaxed);
  EXPECT_EQ(TrainedModelBytes(*loaded, "cmdb"), in_memory);
  {
    // Under thrash, eviction MADV_DONTNEEDs the borrowed spans and rebuilds
    // re-fault them; none of that may copy a column out of the mapping.
    ScopedIndexBudget scoped(1);
    EXPECT_EQ(TrainedModelBytes(*loaded, "cmdb_thrash"), in_memory);
  }
  const uint64_t after =
      ColumnMaterializationCount().load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "training a .cmdb database materialized " << (after - before)
      << " borrowed column(s)";
}

TEST(IndexCacheTest, ConcurrentGetsUnderTinyBudgetStayCorrect) {
  // TSan target: many threads Get the same keys while eviction constantly
  // clears them, exercising single-flight builds, waiter wakeups, and
  // eviction of freshly inserted artifacts.
  Relation r(ProbeSchema());
  Rng rng(13);
  for (int t = 0; t < 300; ++t) {
    TupleId id = r.AddTuple();
    r.SetInt(id, 0, t);
    r.SetInt(id, 1, static_cast<int64_t>(rng.Uniform(6)));
    r.SetDouble(id, 2, rng.UniformDouble());
    r.SetInt(id, 3, static_cast<int64_t>(rng.Uniform(40)));
  }
  const std::vector<int64_t> expected_values =
      testing::PresentValues(*r.GetAttrIndex(1));
  const std::vector<TupleId> expected_order = *r.GetSortedIndex(2);

  ScopedIndexBudget scoped(1);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 6; ++w) {
    threads.emplace_back([&r, &failures, &expected_values, &expected_order,
                          w]() {
      for (int i = 0; i < 40; ++i) {
        switch ((w + i) % 3) {
          case 0: {
            std::shared_ptr<const AttrIndex> index = r.GetAttrIndex(1);
            if (testing::PresentValues(*index) != expected_values) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            std::shared_ptr<const AttrIndex> index = r.GetAttrIndex(3);
            if (index->num_values() == 0) failures.fetch_add(1);
            break;
          }
          default: {
            std::shared_ptr<const std::vector<TupleId>> order =
                r.GetSortedIndex(2);
            if (*order != expected_order) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace crossmine
