// AttrIndex correctness: the cached inverted index must list exactly the
// column's non-NULL (value, tuple) pairs in CSR form, promote dense values
// to bitmaps per the break-even rule, and rebuild after mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "core/bitmap_ops.h"
#include "datagen/synthetic.h"
#include "relational/database.h"
#include "test_util.h"

namespace crossmine {
namespace {

/// Rebuilds the expected value -> sorted posting map straight from the
/// column, the reference the index is checked against.
std::map<int64_t, std::vector<TupleId>> ReferencePostings(const Relation& rel,
                                                          AttrId a) {
  std::map<int64_t, std::vector<TupleId>> ref;
  const Column<int64_t>& col = rel.IntColumn(a);
  for (TupleId t = 0; t < rel.num_tuples(); ++t) {
    if (col[t] != kNullValue) ref[col[t]].push_back(t);
  }
  return ref;
}

void CheckIndexAgainstColumn(const Relation& rel, AttrId a) {
  std::shared_ptr<const AttrIndex> handle = rel.GetAttrIndex(a);
  const AttrIndex& index = *handle;
  std::map<int64_t, std::vector<TupleId>> ref = ReferencePostings(rel, a);

  ASSERT_EQ(index.num_values(), ref.size()) << rel.name();
  EXPECT_EQ(index.words_per_value,
            bitmap_ops::WordsForBits(rel.num_tuples()));
  EXPECT_TRUE(std::is_sorted(index.values.begin(), index.values.end()));
  ASSERT_EQ(index.offsets.size(), index.num_values() + 1);
  EXPECT_EQ(index.offsets.front(), 0u);
  EXPECT_EQ(index.offsets.back(), index.postings.size());

  // Only literal scoring reads bitmaps, so the unified index promotes them
  // for categorical attributes; key attributes (join-only) never carry one.
  const bool categorical = rel.schema().attr(a).kind == AttrKind::kCategorical;
  const uint32_t break_even =
      std::max<uint32_t>(16, 2 * index.words_per_value);
  auto it = ref.begin();
  for (size_t v = 0; v < index.num_values(); ++v, ++it) {
    EXPECT_EQ(index.values[v], it->first);
    EXPECT_EQ(index.FindValue(it->first), v);
    ASSERT_EQ(index.posting_count(v), it->second.size());
    const TupleId* ids = index.posting(v);
    for (size_t i = 0; i < it->second.size(); ++i) {
      EXPECT_EQ(ids[i], it->second[i]);
    }
    const uint64_t* words = index.posting_words(v);
    if (!categorical) {
      EXPECT_EQ(words, nullptr)
          << rel.name() << ": key attribute carries a dead bitmap";
    } else if (index.posting_count(v) >= break_even) {
      ASSERT_NE(words, nullptr)
          << rel.name() << ": value " << it->first << " with "
          << index.posting_count(v) << " postings missed bitmap promotion";
    }
    if (words != nullptr) {
      // The bitmap is an exact dense rendering of the posting list.
      EXPECT_EQ(bitmap_ops::Popcount(words, index.words_per_value),
                index.posting_count(v));
      for (TupleId id : it->second) {
        EXPECT_TRUE(bitmap_ops::TestBit(words, id));
      }
    }
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
  cfg.expected_tuples = 400;  // enough tuples to cross bitmap break-even
  cfg.seed = 29;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  bool saw_bitmap = false;
  for (RelId r = 0; r < db->num_relations(); ++r) {
    const Relation& rel = db->relation(r);
    for (AttrId a = 0; a < static_cast<AttrId>(rel.schema().num_attrs());
         ++a) {
      if (!rel.schema().IsIntAttr(a)) continue;
      CheckIndexAgainstColumn(rel, a);
      std::shared_ptr<const AttrIndex> index = rel.GetAttrIndex(a);
      for (size_t v = 0; v < index->num_values(); ++v) {
        saw_bitmap = saw_bitmap || index->posting_words(v) != nullptr;
      }
    }
  }
  EXPECT_TRUE(saw_bitmap)
      << "config never promoted a value to bitmap; the dense path is untested";
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
