#include "core/bitmap_ops.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace crossmine {
namespace {

using SetRef = std::set<TupleId>;

/// Builds a zero-padded bitmap over `universe` bits from a reference set.
std::vector<uint64_t> ToWords(const SetRef& ids, size_t universe) {
  std::vector<uint64_t> words(bitmap_ops::WordsForBits(universe), 0);
  for (TupleId id : ids) bitmap_ops::SetBit(words.data(), id);
  return words;
}

/// Decodes a bitmap back into a reference set via TestBit.
SetRef ToSet(const std::vector<uint64_t>& words) {
  SetRef out;
  for (TupleId id = 0; id < words.size() * 64; ++id) {
    if (bitmap_ops::TestBit(words.data(), id)) out.insert(id);
  }
  return out;
}

SetRef RandomSet(std::mt19937_64* rng, size_t universe, double density) {
  SetRef out;
  if (universe == 0) return out;
  std::bernoulli_distribution take(density);
  for (size_t i = 0; i < universe; ++i) {
    if (take(*rng)) out.insert(static_cast<TupleId>(i));
  }
  return out;
}

SetRef Intersect(const SetRef& a, const SetRef& b) {
  SetRef out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

/// The universes the kernels must survive: word-boundary sizes, a lone tail
/// bit, sub-word spans, and a multi-word span with a partial tail.
const size_t kUniverses[] = {1, 5, 63, 64, 65, 127, 128, 129, 200, 1000};

TEST(BitmapOpsTest, RoundTripAndPopcountMatchReference) {
  std::mt19937_64 rng(20260808);
  for (size_t universe : kUniverses) {
    for (double density : {0.0, 0.03, 0.5, 1.0}) {
      SetRef ref = RandomSet(&rng, universe, density);
      std::vector<uint64_t> words = ToWords(ref, universe);
      EXPECT_EQ(ToSet(words), ref) << "universe=" << universe;
      EXPECT_EQ(bitmap_ops::Popcount(words.data(), words.size()), ref.size());
      for (size_t i = 0; i < universe; ++i) {
        EXPECT_EQ(bitmap_ops::TestBit(words.data(), static_cast<TupleId>(i)),
                  ref.count(static_cast<TupleId>(i)) != 0);
      }
    }
  }
}

TEST(BitmapOpsTest, BinaryKernelsMatchSetAlgebra) {
  std::mt19937_64 rng(977);
  for (size_t universe : kUniverses) {
    for (int round = 0; round < 8; ++round) {
      SetRef a = RandomSet(&rng, universe, 0.05 + 0.12 * (round % 5));
      SetRef b = RandomSet(&rng, universe, 0.05 + 0.2 * (round % 3));
      std::vector<uint64_t> wa = ToWords(a, universe);
      std::vector<uint64_t> wb = ToWords(b, universe);
      EXPECT_EQ(bitmap_ops::AndPopcount(wa.data(), wb.data(), wa.size()),
                Intersect(a, b).size());
    }
  }
}

TEST(BitmapOpsTest, WordsForBitsBoundaries) {
  EXPECT_EQ(bitmap_ops::WordsForBits(0), 0u);
  EXPECT_EQ(bitmap_ops::WordsForBits(1), 1u);
  EXPECT_EQ(bitmap_ops::WordsForBits(63), 1u);
  EXPECT_EQ(bitmap_ops::WordsForBits(64), 1u);
  EXPECT_EQ(bitmap_ops::WordsForBits(65), 2u);
  EXPECT_EQ(bitmap_ops::WordsForBits(128), 2u);
  EXPECT_EQ(bitmap_ops::WordsForBits(129), 3u);
}

}  // namespace
}  // namespace crossmine
