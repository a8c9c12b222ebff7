#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <set>
#include <vector>

#include "test_util.h"

namespace crossmine {
namespace {

// The reference idset helpers the brute-force oracles are built on.
using testing::FilterIdSet;
using testing::FilterIdSets;
using testing::IdSet;
using testing::NormalizeIdSet;
using testing::TotalIds;
using testing::UnionInPlace;

TEST(IdSetTest, NormalizeSortsAndDedupes) {
  IdSet s{5, 1, 3, 1, 5};
  NormalizeIdSet(&s);
  EXPECT_EQ(s, (IdSet{1, 3, 5}));
}

TEST(IdSetTest, NormalizeEmpty) {
  IdSet s;
  NormalizeIdSet(&s);
  EXPECT_TRUE(s.empty());
}

TEST(IdSetTest, UnionIntoEmpty) {
  IdSet dst;
  UnionInPlace(&dst, {1, 2, 3});
  EXPECT_EQ(dst, (IdSet{1, 2, 3}));
}

TEST(IdSetTest, UnionFromEmptyNoop) {
  IdSet dst{1, 2};
  UnionInPlace(&dst, {});
  EXPECT_EQ(dst, (IdSet{1, 2}));
}

TEST(IdSetTest, UnionMergesDisjoint) {
  IdSet dst{1, 4};
  UnionInPlace(&dst, {2, 3, 5});
  EXPECT_EQ(dst, (IdSet{1, 2, 3, 4, 5}));
}

TEST(IdSetTest, UnionDeduplicatesOverlap) {
  IdSet dst{1, 2, 3};
  UnionInPlace(&dst, {2, 3, 4});
  EXPECT_EQ(dst, (IdSet{1, 2, 3, 4}));
}

TEST(IdSetTest, FilterIdSetDropsDeadIds) {
  IdSet s{0, 1, 2, 3, 4};
  std::vector<uint8_t> alive{1, 0, 1, 0, 1};
  FilterIdSet(&s, alive);
  EXPECT_EQ(s, (IdSet{0, 2, 4}));
}

TEST(IdSetTest, FilterIdSetsShrinksEmptied) {
  std::vector<IdSet> sets{{0, 1}, {1}, {}};
  std::vector<uint8_t> alive{1, 0};
  FilterIdSets(&sets, alive);
  EXPECT_EQ(sets[0], (IdSet{0}));
  EXPECT_TRUE(sets[1].empty());
  EXPECT_EQ(sets[1].capacity(), 0u);  // storage released
  EXPECT_TRUE(sets[2].empty());
}

TEST(IdSetTest, TotalIds) {
  std::vector<IdSet> sets{{0, 1}, {}, {2, 3, 4}};
  EXPECT_EQ(TotalIds(sets), 5u);
  EXPECT_EQ(TotalIds({}), 0u);
}

// The idset store of training and prediction is one `IdPairs` vector per
// clause node (core/id_pairs.h). Random edits through the pair routines
// (runs replaced, copied, cleared, filtered by `DropDeadIds`, reset by
// `IdentityPairs`) must keep the vector sorted and duplicate-free, and
// decoding it run by run with `TupleRunEnd` must give back a naive
// `std::set` per tuple.
using NaiveSets = std::vector<std::set<TupleId>>;

// Replaces the run of `tuple` with one pair per id of `ids` (any order,
// repeats allowed), keeping the vector sorted and duplicate-free.
void AssignRun(IdPairs* pairs, TupleId tuple, const std::vector<TupleId>& ids) {
  auto lo = std::lower_bound(pairs->begin(), pairs->end(),
                             MakeIdPair(tuple, 0));
  const size_t at = static_cast<size_t>(lo - pairs->begin());
  const size_t end = at < pairs->size() && PairTuple((*pairs)[at]) == tuple
                         ? TupleRunEnd(*pairs, at)
                         : at;
  IdPairs run;
  for (TupleId id : ids) run.push_back(MakeIdPair(tuple, id));
  std::sort(run.begin(), run.end());
  run.erase(std::unique(run.begin(), run.end()), run.end());
  pairs->erase(pairs->begin() + at, pairs->begin() + end);
  pairs->insert(pairs->begin() + at, run.begin(), run.end());
}

std::vector<TupleId> RunIds(const IdPairs& pairs, TupleId tuple) {
  std::vector<TupleId> ids;
  for (IdPair p : pairs) {
    if (PairTuple(p) == tuple) ids.push_back(PairId(p));
  }
  return ids;
}

void ExpectMatches(const IdPairs& pairs, const NaiveSets& ref) {
  ASSERT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  ASSERT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  NaiveSets got(ref.size());
  for (size_t lo = 0; lo < pairs.size();) {
    const size_t hi = TupleRunEnd(pairs, lo);
    const TupleId t = PairTuple(pairs[lo]);
    ASSERT_LT(t, ref.size());
    EXPECT_TRUE(got[t].empty()) << "tuple " << t << " has two runs";
    for (size_t i = lo; i < hi; ++i) {
      EXPECT_EQ(PairTuple(pairs[i]), t);
      got[t].insert(PairId(pairs[i]));
    }
    lo = hi;
  }
  for (TupleId t = 0; t < ref.size(); ++t) {
    EXPECT_EQ(got[t], ref[t]) << "tuple " << t;
  }
}

class IdSetStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdSetStorePropertyTest, MatchesNaiveSetReference) {
  Rng rng(GetParam());
  const TupleId num_tuples = static_cast<TupleId>(4 + rng.Uniform(60));
  const TupleId num_ids = static_cast<TupleId>(64 + rng.Uniform(2000));

  IdPairs pairs;
  NaiveSets ref(num_tuples);
  for (int step = 0; step < 60; ++step) {
    const TupleId s = static_cast<TupleId>(rng.Uniform(num_tuples));
    switch (rng.Uniform(6)) {
      case 0: {  // Union of random (unsorted, duplicated) ids.
        const uint32_t n = static_cast<uint32_t>(rng.Uniform(80));
        std::vector<TupleId> buf;
        for (uint32_t i = 0; i < n; ++i) {
          buf.push_back(static_cast<TupleId>(rng.Uniform(num_ids)));
        }
        ref[s] = std::set<TupleId>(buf.begin(), buf.end());
        AssignRun(&pairs, s, buf);
        break;
      }
      case 1: {  // Copy another tuple's run (a shared join value).
        const TupleId src = static_cast<TupleId>(rng.Uniform(num_tuples));
        AssignRun(&pairs, s, RunIds(pairs, src));
        ref[s] = ref[src];
        break;
      }
      case 2:  // Clear.
        AssignRun(&pairs, s, {});
        ref[s].clear();
        break;
      case 3: {  // Refresh under a random alive mask.
        std::vector<uint8_t> alive(num_ids);
        for (auto& a : alive) a = rng.Bernoulli(0.8);
        const size_t size_before = pairs.size();
        DropDeadIds(&pairs, alive);
        EXPECT_LE(pairs.size(), size_before);
        for (auto& set : ref) {
          for (auto it = set.begin(); it != set.end();) {
            it = alive[*it] ? std::next(it) : set.erase(it);
          }
        }
        break;
      }
      case 4: {  // Single id.
        const TupleId id = static_cast<TupleId>(rng.Uniform(num_ids));
        AssignRun(&pairs, s, {id});
        ref[s] = {id};
        break;
      }
      case 5: {  // Node-0 reset: (t, t) per alive target, rarely taken.
        if (!rng.Bernoulli(0.2)) break;
        std::vector<uint8_t> alive(num_tuples);
        for (auto& a : alive) a = rng.Bernoulli(0.5);
        pairs = IdentityPairs(alive);
        for (TupleId t = 0; t < num_tuples; ++t) {
          ref[t].clear();
          if (alive[t]) ref[t].insert(t);
        }
        break;
      }
      default:
        break;
    }
    ExpectMatches(pairs, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdSetStorePropertyTest,
                         ::testing::Range<uint64_t>(1, 17));

// `SortPairs` (the radix sort of the propagation keys) must agree with
// std::sort on every key shape: around the std::sort cutoff and at 10^5
// keys; with only low bytes varying, with tuple and id >= 2^24 (bytes 3 and
// 7 vary) and with only bytes 3 and 7 varying; all-equal, heavy-duplicate,
// already sorted and reversed inputs; and with a reused `tmp` that starts
// empty, smaller or larger than the input and full of stale keys.
enum class KeyShape {
  kLowBytes,
  kWide,
  kTopBytesOnly,
  kAllEqual,
  kHeavyDuplicates,
  kSorted,
  kReversed,
};

IdPairs MakeKeys(Rng* rng, KeyShape shape, size_t n) {
  IdPairs keys(n);
  for (IdPair& k : keys) {
    switch (shape) {
      case KeyShape::kLowBytes:
      case KeyShape::kSorted:
      case KeyShape::kReversed:
        k = MakeIdPair(static_cast<TupleId>(rng->Uniform(200)),
                       static_cast<uint32_t>(rng->Uniform(300)));
        break;
      case KeyShape::kWide:
        k = MakeIdPair(static_cast<TupleId>((1u << 24) +
                                            rng->Uniform(0xff000000u)),
                       static_cast<uint32_t>((1u << 24) +
                                             rng->Uniform(0xff000000u)));
        break;
      case KeyShape::kTopBytesOnly:
        k = MakeIdPair(static_cast<TupleId>(rng->Uniform(256) << 24),
                       static_cast<uint32_t>(rng->Uniform(256) << 24));
        break;
      case KeyShape::kAllEqual:
        k = MakeIdPair(70000, 123456);
        break;
      case KeyShape::kHeavyDuplicates:
        k = MakeIdPair(static_cast<TupleId>(rng->Uniform(3) * 65537),
                       static_cast<uint32_t>(rng->Uniform(4) << 16));
        break;
    }
  }
  if (shape == KeyShape::kSorted) std::sort(keys.begin(), keys.end());
  if (shape == KeyShape::kReversed) {
    std::sort(keys.begin(), keys.end(), std::greater<IdPair>());
  }
  return keys;
}

TEST(SortPairsTest, MatchesStdSort) {
  Rng rng(0x5027);
  const size_t sizes[] = {0,
                          1,
                          kSortPairsCutoff - 1,
                          kSortPairsCutoff,
                          kSortPairsCutoff + 1,
                          1000,
                          100000};
  const KeyShape shapes[] = {KeyShape::kLowBytes,  KeyShape::kWide,
                             KeyShape::kTopBytesOnly, KeyShape::kAllEqual,
                             KeyShape::kHeavyDuplicates, KeyShape::kSorted,
                             KeyShape::kReversed};
  IdPairs reused;  // carries stale keys of every earlier size along
  for (size_t n : sizes) {
    for (KeyShape shape : shapes) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shape="
                                        << static_cast<int>(shape));
      const IdPairs input = MakeKeys(&rng, shape, n);
      IdPairs want = input;
      std::sort(want.begin(), want.end());

      IdPairs fresh_tmp;
      IdPairs small_tmp(n / 2, ~uint64_t{0});
      IdPairs large_tmp(2 * n + 100, 0x0123456789abcdefULL);
      for (IdPairs* tmp : {&fresh_tmp, &small_tmp, &large_tmp, &reused}) {
        IdPairs keys = input;
        SortPairs(&keys, tmp);
        ASSERT_EQ(keys, want);
      }
    }
  }
}

}  // namespace
}  // namespace crossmine
