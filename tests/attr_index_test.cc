// AttrIndex correctness: the cached inverted index must list exactly the
// column's non-NULL (value, tuple) pairs in CSR form, build the same index
// by counting sort (dense value ranges) and by comparison sort (sparse
// ones), and rebuild after mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "relational/database.h"
#include "test_util.h"

namespace crossmine {
namespace {

using Postings = std::map<int64_t, std::vector<TupleId>>;

/// The expected value -> sorted posting map of a column, built by a plain
/// walk: the reference every index is checked against.
Postings ReferencePostings(const int64_t* col, TupleId n) {
  Postings ref;
  for (TupleId t = 0; t < n; ++t) {
    if (col[t] != kNullValue) ref[col[t]].push_back(t);
  }
  return ref;
}

Postings ReferencePostings(const Relation& rel, AttrId a) {
  return ReferencePostings(rel.IntColumn(a).data(), rel.num_tuples());
}

void ExpectIndexMatches(const AttrIndex& index, const Postings& ref) {
  ASSERT_EQ(index.num_values(), ref.size());
  EXPECT_TRUE(std::is_sorted(index.values.begin(), index.values.end()));
  ASSERT_EQ(index.offsets.size(), index.num_values() + 1);
  EXPECT_EQ(index.offsets.front(), 0u);
  EXPECT_EQ(index.offsets.back(), index.postings.size());
  auto it = ref.begin();
  for (size_t v = 0; v < index.num_values(); ++v, ++it) {
    EXPECT_EQ(index.values[v], it->first);
    EXPECT_EQ(index.FindValue(it->first), v);
    ASSERT_EQ(index.posting_count(v), it->second.size());
    const TupleId* ids = index.posting(v);
    for (size_t i = 0; i < it->second.size(); ++i) {
      EXPECT_EQ(ids[i], it->second[i]);
    }
  }
  EXPECT_EQ(index.FindValue(kNullValue), AttrIndex::npos);
}

void CheckIndexAgainstColumn(const Relation& rel, AttrId a) {
  SCOPED_TRACE(rel.name());
  std::shared_ptr<const AttrIndex> handle = rel.GetAttrIndex(a);
  ExpectIndexMatches(*handle, ReferencePostings(rel, a));
}

/// Whether `col` takes the counting-sort build: its non-NULL range, taken
/// in unsigned arithmetic, is dense. False when no value is non-NULL.
bool TakesCountingSort(const std::vector<int64_t>& col) {
  size_t count = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (int64_t v : col) {
    if (v == kNullValue) continue;
    ++count;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return count > 0 &&
         DenseValueRange(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo),
                         count);
}

/// Builds `col` through the automatic path and the forced comparison sort:
/// both must equal the reference and each other.
void ExpectBuildPathsAgree(const std::vector<int64_t>& col) {
  const TupleId n = static_cast<TupleId>(col.size());
  const Postings ref = ReferencePostings(col.data(), n);
  const AttrIndex chosen = BuildAttrIndex(col.data(), n);
  const AttrIndex sorted = BuildAttrIndex(col.data(), n, /*force_sort=*/true);
  ExpectIndexMatches(chosen, ref);
  ExpectIndexMatches(sorted, ref);
  EXPECT_EQ(chosen.values, sorted.values);
  EXPECT_EQ(chosen.offsets, sorted.offsets);
  EXPECT_EQ(chosen.postings, sorted.postings);
}

TEST(AttrIndexTest, MatchesColumnOnFig2) {
  testing::Fig2Database f = testing::MakeFig2Database();
  for (RelId r = 0; r < f.db.num_relations(); ++r) {
    const Relation& rel = f.db.relation(r);
    for (AttrId a = 0; a < static_cast<AttrId>(rel.schema().num_attrs());
         ++a) {
      if (!rel.schema().IsIntAttr(a)) continue;
      CheckIndexAgainstColumn(rel, a);
    }
  }
}

TEST(AttrIndexTest, MatchesColumnOnGeneratedDatabases) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 6;
  cfg.expected_tuples = 400;
  cfg.seed = 29;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  for (RelId r = 0; r < db->num_relations(); ++r) {
    const Relation& rel = db->relation(r);
    for (AttrId a = 0; a < static_cast<AttrId>(rel.schema().num_attrs());
         ++a) {
      if (!rel.schema().IsIntAttr(a)) continue;
      CheckIndexAgainstColumn(rel, a);
      // Dictionary codes and surrogate keys are dense: every generated
      // column takes the counting sort.
      const Column<int64_t>& col = rel.IntColumn(a);
      EXPECT_TRUE(TakesCountingSort({col.begin(), col.end()}) ||
                  std::all_of(col.begin(), col.end(),
                              [](int64_t v) { return v == kNullValue; }))
          << rel.name() << " attr " << a;
    }
  }
}

TEST(AttrIndexTest, CachedUntilMutationThenRebuilt) {
  testing::Fig2Database f = testing::MakeFig2Database();
  Relation& rel = f.db.mutable_relation(f.account);
  std::shared_ptr<const AttrIndex> first = rel.GetAttrIndex(f.account_frequency);
  // Same artifact back while the relation is untouched.
  EXPECT_EQ(rel.GetAttrIndex(f.account_frequency).get(), first.get());

  int64_t old = rel.Int(0, f.account_frequency);
  int64_t moved = old + 1000;
  rel.SetInt(0, f.account_frequency, moved);
  std::shared_ptr<const AttrIndex> rebuilt_handle =
      rel.GetAttrIndex(f.account_frequency);
  const AttrIndex& rebuilt = *rebuilt_handle;
  auto pos = std::find(rebuilt.values.begin(), rebuilt.values.end(), moved);
  ASSERT_NE(pos, rebuilt.values.end());
  size_t v = static_cast<size_t>(pos - rebuilt.values.begin());
  ASSERT_EQ(rebuilt.posting_count(v), 1u);
  EXPECT_EQ(rebuilt.posting(v)[0], 0u);
  CheckIndexAgainstColumn(rel, f.account_frequency);
}

// Edge columns through both build paths. The automatic choice must be the
// expected one, and both paths must build the reference index.
TEST(AttrIndexTest, BuildPathsAgreeOnEdgeColumns) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(0xa77);
  std::vector<int64_t> dense, sparse, heavy;
  for (int i = 0; i < 3000; ++i) {
    const bool null = rng.Bernoulli(0.1);
    dense.push_back(null ? kNullValue
                         : static_cast<int64_t>(rng.Uniform(2000)));
    // 50 values 10^6 apart: far too wide a range for the count table.
    sparse.push_back(null ? kNullValue
                          : static_cast<int64_t>(rng.Uniform(50)) * 1000003);
    heavy.push_back(static_cast<int64_t>(rng.Uniform(3)) - 5);
  }
  struct Case {
    const char* name;
    std::vector<int64_t> col;
    bool counting;
  };
  const std::vector<Case> cases = {
      {"dense", dense, true},
      {"sparse", sparse, false},
      {"heavy duplicates, negative", heavy, true},
      // Negative values other than NULL, with NULL (-1) inside the range.
      {"negatives", {-7, 3, -2, kNullValue, -7, 0, -3, 3, -2, -1000}, true},
      {"int64 extremes", {kMax, kMin, kNullValue, 0, kMax, kMin, 5}, false},
      {"dense at INT64_MAX", {kMax, kMax - 2, kNullValue, kMax}, true},
      {"dense at INT64_MIN", {kMin + 1, kMin, kMin + 1}, true},
      {"all NULL", {kNullValue, kNullValue, kNullValue}, false},
      {"one value", {42, 42, kNullValue, 42}, true},
      {"empty", {}, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(TakesCountingSort(c.col), c.counting);
    ExpectBuildPathsAgree(c.col);
  }
}

TEST(AttrIndexTest, EmptyRelationHasEmptyIndex) {
  RelationSchema schema("Empty");
  schema.AddPrimaryKey("id");
  schema.AddCategorical("c");
  Relation rel(schema);
  for (AttrId a = 0; a < 2; ++a) {
    std::shared_ptr<const AttrIndex> index = rel.GetAttrIndex(a);
    EXPECT_EQ(index->num_values(), 0u);
    EXPECT_EQ(index->offsets, std::vector<uint32_t>{0});
    EXPECT_TRUE(index->postings.empty());
    EXPECT_EQ(index->FindValue(0), AttrIndex::npos);
  }
}

// A SetInt that widens a dense column past the counting-sort range must
// rebuild through the comparison sort, and narrowing it again must come
// back through the counting sort, each time matching the reference.
TEST(AttrIndexTest, RebuildAfterSetIntSwitchesBuildPath) {
  RelationSchema schema("Codes");
  schema.AddPrimaryKey("id");
  schema.AddCategorical("c");
  Relation rel(schema);
  Rng rng(91);
  for (int i = 0; i < 500; ++i) {
    const TupleId t = rel.AddTuple();
    rel.SetInt(t, 0, t);
    rel.SetInt(t, 1, static_cast<int64_t>(rng.Uniform(12)));
  }
  auto column = [&rel] {
    const Column<int64_t>& col = rel.IntColumn(1);
    return std::vector<int64_t>(col.begin(), col.end());
  };
  ASSERT_TRUE(TakesCountingSort(column()));
  CheckIndexAgainstColumn(rel, 1);

  rel.SetInt(7, 1, int64_t{1} << 40);
  ASSERT_FALSE(TakesCountingSort(column()));
  CheckIndexAgainstColumn(rel, 1);
  EXPECT_EQ(rel.GetAttrIndex(1)->values.back(), int64_t{1} << 40);

  rel.SetInt(7, 1, kNullValue);
  ASSERT_TRUE(TakesCountingSort(column()));
  CheckIndexAgainstColumn(rel, 1);
  for (TupleId t : {TupleId{0}, TupleId{499}}) {
    rel.SetInt(t, 1, -3);
    CheckIndexAgainstColumn(rel, 1);
  }
}

// FindValue answers dense keys (`values[v] == v`) without a search and
// falls back to binary search otherwise; either way every probe must agree
// with a plain lower_bound over the distinct values.
TEST(AttrIndexTest, FindValueDenseProbeMatchesLowerBound) {
  const std::vector<std::vector<int64_t>> value_sets = {
      {},                          // empty index
      {0, 1, 2, 3, 4, 5, 6, 7},    // dense 0..n-1 (codes, surrogate keys)
      {0, 1, 2, 5, 6, 9},          // a gap: 5 and 9 sit off their index
      {3, 4, 5, 6},                // shifted: no value at its own index
      {-7, -2, 0, 1, 2},           // negatives shift the dense prefix
      {1},                         // value == size
      {0, 1, 2, 1000000}};         // a far outlier past the end
  for (const std::vector<int64_t>& values : value_sets) {
    AttrIndex index;
    // Spare capacity past the end holds "matching" codes, so a probe that
    // skipped the bounds check would find them.
    index.values.reserve(values.size() + 16);
    for (int64_t v = 0; v < static_cast<int64_t>(values.size()) + 16; ++v) {
      index.values.push_back(v);
    }
    index.values.assign(values.begin(), values.end());
    std::vector<int64_t> probes = {kNullValue, -8, -7, -3, -2,
                                   std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(),
                                   999999, 1000000, 1000001};
    for (int64_t v = -1; v <= 12; ++v) probes.push_back(v);
    for (int64_t probe : probes) {
      auto it = std::lower_bound(values.begin(), values.end(), probe);
      const size_t want = (it == values.end() || *it != probe)
                              ? AttrIndex::npos
                              : static_cast<size_t>(it - values.begin());
      EXPECT_EQ(index.FindValue(probe), want)
          << "probe " << probe << " over " << values.size() << " values";
    }
  }
}

}  // namespace
}  // namespace crossmine
