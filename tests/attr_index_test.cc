// AttrIndex correctness: the cached inverted index must list exactly the
// column's non-NULL (value, tuple) pairs in CSR form, index the same
// postings in the direct-addressed layout (counting sort, dense value
// ranges) and the sorted layout (radix sort, sparse ones), miss every
// absent value, and rebuild after mutations.

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

/// Probes `index` for `value`, which no tuple holds: must miss.
void ExpectAbsent(const AttrIndex& index, int64_t value) {
  EXPECT_EQ(index.FindValue(value), AttrIndex::npos) << "probe " << value;
}

/// Checks `index` against the reference through the accessors only, for
/// either layout: the non-empty slots list exactly the reference values,
/// ascending, with their counts and (if kept) their postings; a
/// direct-addressed index has no other slot inside its span; and every
/// value absent from the column — NULL, the neighbours of each present
/// value, and the gaps inside the span — misses.
void ExpectIndexMatches(const AttrIndex& index, const Postings& ref) {
  auto it = ref.begin();
  for (size_t v = 0; v < index.num_values(); ++v) {
    if (index.posting_count(v) == 0) {
      EXPECT_TRUE(index.dense()) << "empty slot " << v << " in sorted layout";
      continue;
    }
    ASSERT_NE(it, ref.end()) << "slot " << v << " holds no reference value";
    EXPECT_EQ(index.value(v), it->first);
    EXPECT_EQ(index.FindValue(it->first), v);
    ASSERT_EQ(index.posting_count(v), it->second.size());
    if (index.has_postings()) {
      const TupleId* ids = index.posting(v);
      for (size_t i = 0; i < it->second.size(); ++i) {
        EXPECT_EQ(ids[i], it->second[i]);
      }
    }
    ++it;
  }
  EXPECT_EQ(it, ref.end()) << "reference values missing from the index";
  if (index.dense() && !ref.empty()) {
    EXPECT_EQ(index.value(0), ref.begin()->first);
    EXPECT_EQ(index.value(index.num_values() - 1), ref.rbegin()->first);
  }
  ExpectAbsent(index, kNullValue);
  for (auto v = ref.begin(); v != ref.end(); ++v) {
    const int64_t x = v->first;
    if (x != std::numeric_limits<int64_t>::min() && !ref.contains(x - 1) &&
        x - 1 != kNullValue) {
      ExpectAbsent(index, x - 1);
    }
    if (x != std::numeric_limits<int64_t>::max() && !ref.contains(x + 1) &&
        x + 1 != kNullValue) {
      ExpectAbsent(index, x + 1);
    }
    // Midway into the gap to the next present value.
    auto next = std::next(v);
    if (next != ref.end()) {
      const int64_t mid = static_cast<int64_t>(
          static_cast<uint64_t>(x) +
          (static_cast<uint64_t>(next->first) - static_cast<uint64_t>(x)) / 2);
      if (mid != x) ExpectAbsent(index, mid);
    }
  }
}

/// Key attributes keep their postings (join probes read them); categorical
/// ones keep slots and counts only (the literal search reads nothing else).
void CheckIndexAgainstColumn(const Relation& rel, AttrId a) {
  SCOPED_TRACE(rel.name());
  std::shared_ptr<const AttrIndex> handle = rel.GetAttrIndex(a);
  const Postings ref = ReferencePostings(rel, a);
  const bool categorical = rel.schema().attr(a).kind == AttrKind::kCategorical;
  EXPECT_EQ(handle->has_postings(), !categorical || ref.empty());
  ExpectIndexMatches(*handle, ref);
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

/// Builds `col` through the automatic path and the forced sorted layout:
/// the automatic one must take the layout `DenseValueRange` picks, both must
/// equal the reference, and they must agree on every present value. Built
/// without postings, each layout must keep the same slots and counts.
void ExpectBuildPathsAgree(const std::vector<int64_t>& col) {
  const TupleId n = static_cast<TupleId>(col.size());
  const Postings ref = ReferencePostings(col.data(), n);
  for (bool force_sort : {false, true}) {
    const AttrIndex counts =
        BuildAttrIndex(col.data(), n, /*with_postings=*/false, force_sort);
    const AttrIndex full =
        BuildAttrIndex(col.data(), n, /*with_postings=*/true, force_sort);
    EXPECT_TRUE(counts.postings.empty());
    EXPECT_EQ(counts.has_postings(), ref.empty());
    EXPECT_EQ(counts.dense(), full.dense());
    EXPECT_EQ(counts.lo, full.lo);
    EXPECT_EQ(counts.values, full.values);
    EXPECT_EQ(counts.offsets, full.offsets);
    ExpectIndexMatches(counts, ref);
  }
  const AttrIndex chosen = BuildAttrIndex(col.data(), n, true);
  const AttrIndex sorted =
      BuildAttrIndex(col.data(), n, true, /*force_sort=*/true);
  EXPECT_EQ(chosen.dense(), TakesCountingSort(col) || ref.empty());
  EXPECT_EQ(sorted.dense(), ref.empty());
  ExpectIndexMatches(chosen, ref);
  ExpectIndexMatches(sorted, ref);
  for (const auto& [value, ids] : ref) {
    const size_t a = chosen.FindValue(value);
    const size_t b = sorted.FindValue(value);
    ASSERT_NE(a, AttrIndex::npos);
    ASSERT_NE(b, AttrIndex::npos);
    EXPECT_EQ(std::vector<TupleId>(chosen.posting(a),
                                   chosen.posting(a) + chosen.posting_count(a)),
              std::vector<TupleId>(sorted.posting(b),
                                   sorted.posting(b) + sorted.posting_count(b)))
        << "value " << value;
  }
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
  const size_t v = rebuilt.FindValue(moved);
  ASSERT_NE(v, AttrIndex::npos);
  EXPECT_EQ(rebuilt.value(v), moved);
  ASSERT_EQ(rebuilt.posting_count(v), 1u);
  CheckIndexAgainstColumn(rel, f.account_frequency);
}

// Edge columns through both layouts. The automatic choice must be the
// expected one, and both layouts must index the reference postings.
TEST(AttrIndexTest, BuildPathsAgreeOnEdgeColumns) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(0xa77);
  std::vector<int64_t> dense, sparse, heavy, wide, extremes, dense_top;
  for (int i = 0; i < 3000; ++i) {
    const bool null = rng.Bernoulli(0.1);
    dense.push_back(null ? kNullValue
                         : static_cast<int64_t>(rng.Uniform(2000)));
    // 50 values 10^6 apart: far too wide a range for the count table.
    sparse.push_back(null ? kNullValue
                          : static_cast<int64_t>(rng.Uniform(50)) * 1000003);
    heavy.push_back(static_cast<int64_t>(rng.Uniform(3)) - 5);
    // 500 values over a span of 2^48: six varying key bytes to radix-sort.
    wide.push_back(null ? kNullValue
                        : static_cast<int64_t>(rng.Uniform(500) << 39));
    // Values within 1000 of INT64_MIN or of INT64_MAX: every key byte
    // varies, and an offset from lo that overflowed would misorder them.
    const int64_t near = static_cast<int64_t>(rng.Uniform(1000));
    extremes.push_back(rng.Bernoulli(0.5) ? kMin + near : kMax - near);
    dense_top.push_back(kMax - static_cast<int64_t>(rng.Uniform(4000)));
  }
  struct Case {
    const char* name;
    std::vector<int64_t> col;
    bool counting;
  };
  const std::vector<Case> cases = {
      {"dense", dense, true},
      {"sparse", sparse, false},
      {"span 2^48", wide, false},
      {"near INT64_MIN and INT64_MAX", extremes, false},
      {"dense below INT64_MAX", dense_top, true},
      {"span 2^40, few values", {0, int64_t{1} << 40, 7, kNullValue, 0}, false},
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
  // Direct-addressed slot numbers must fit the 32-bit tuple half of an
  // IdPair, however many values fill the range.
  EXPECT_TRUE(DenseValueRange(0xffffffffu, size_t{1} << 31));
  EXPECT_FALSE(DenseValueRange(uint64_t{1} << 32, size_t{1} << 32));
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
    EXPECT_EQ(index->FindValue(std::numeric_limits<int64_t>::min()),
              AttrIndex::npos);
  }
}

// A SetInt that widens a dense column past the counting-sort range must
// rebuild into the sorted layout, and narrowing it again must come back to
// the direct-addressed one, each time matching the reference.
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
  {
    std::shared_ptr<const AttrIndex> wide = rel.GetAttrIndex(1);
    EXPECT_FALSE(wide->dense());
    EXPECT_EQ(wide->value(wide->num_values() - 1), int64_t{1} << 40);
  }

  rel.SetInt(7, 1, kNullValue);
  ASSERT_TRUE(TakesCountingSort(column()));
  CheckIndexAgainstColumn(rel, 1);
  for (TupleId t : {TupleId{0}, TupleId{499}}) {
    rel.SetInt(t, 1, -3);
    CheckIndexAgainstColumn(rel, 1);
  }
}

// FindValue in both layouts — direct-addressed (`x - lo`, with empty slots
// for the gaps) and sorted (binary search) — must agree on every probe with
// a plain lower_bound over the distinct values, including probes far
// outside the span whose unsigned offset from `lo` wraps around.
TEST(AttrIndexTest, FindValueDenseProbeMatchesLowerBound) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::vector<int64_t>> value_sets = {
      {},                          // empty index
      {0, 1, 2, 3, 4, 5, 6, 7},    // dense 0..n-1 (codes, surrogate keys)
      {0, 1, 2, 5, 6, 9},          // gaps inside the span
      {3, 4, 5, 6},                // shifted: lo > 0
      {-7, -2, 0, 1, 2},           // negatives, NULL (-1) inside the span
      {1},                         // one value
      {0, 1, 2, 1000000},          // a far outlier: sorted layout
      {kMax - 3, kMax},            // at INT64_MAX
      {kMin, kMin + 2},            // at INT64_MIN
      {kMin, 0, kMax}};            // the whole int64 range
  for (const std::vector<int64_t>& values : value_sets) {
    std::vector<int64_t> col;
    for (int64_t v : values) col.insert(col.end(), {v, kNullValue, v});
    const TupleId n = static_cast<TupleId>(col.size());
    std::vector<int64_t> probes = {kNullValue, -8,        -7,        -3,
                                   -2,         kMin,      kMin + 1,  kMin + 2,
                                   kMin + 3,   kMax,      kMax - 1,  kMax - 3,
                                   kMax - 4,   999999,    1000000,   1000001};
    for (int64_t v = -1; v <= 12; ++v) probes.push_back(v);
    for (bool force_sort : {false, true}) {
      const AttrIndex index = BuildAttrIndex(col.data(), n, true, force_sort);
      for (int64_t probe : probes) {
        auto it = std::lower_bound(values.begin(), values.end(), probe);
        const bool present = it != values.end() && *it == probe;
        const size_t got = index.FindValue(probe);
        if (!present) {
          EXPECT_EQ(got, AttrIndex::npos)
              << "probe " << probe << " over " << values.size()
              << " values, force_sort " << force_sort;
        } else {
          ASSERT_NE(got, AttrIndex::npos) << "probe " << probe;
          EXPECT_EQ(index.value(got), probe);
          EXPECT_EQ(index.posting_count(got), 2u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace crossmine
