#ifndef CROSSMINE_CORE_BITMAP_OPS_H_
#define CROSSMINE_CORE_BITMAP_OPS_H_

#include <cstddef>
#include <cstdint>

#include "relational/types.h"

namespace crossmine {

/// Word-parallel kernels over dense `uint64_t` bitmap spans: the dense
/// posting bitmaps of `AttrIndex` and the node-0 literal count against the
/// packed alive-class masks.
///
/// Every kernel is a straight-line loop over equal-length word spans with
/// local accumulators and no early exit, the shape compilers autovectorize
/// (and turn the per-word popcount into hardware POPCNT where available).
/// Bits past a bitmap's logical universe must be zero, so tail words need
/// no special casing here.
namespace bitmap_ops {

/// popcount(a) over `n` words.
inline uint64_t Popcount(const uint64_t* a, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i]));
  }
  return total;
}

/// popcount(a ∧ b) over `n` words. The pos/neg distinct-target count of the
/// node-0 literal search: `a` a dense posting, `b` an alive-class mask.
inline uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

/// Number of words covering `n` bits.
inline size_t WordsForBits(size_t n) { return (n + 63) / 64; }

/// Sets bit `id` of `words`.
inline void SetBit(uint64_t* words, TupleId id) {
  words[id >> 6] |= uint64_t{1} << (id & 63);
}

/// Tests bit `id` of `words`.
inline bool TestBit(const uint64_t* words, TupleId id) {
  return (words[id >> 6] >> (id & 63)) & 1;
}

}  // namespace bitmap_ops
}  // namespace crossmine

#endif  // CROSSMINE_CORE_BITMAP_OPS_H_
