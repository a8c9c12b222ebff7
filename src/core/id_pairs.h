#ifndef CROSSMINE_CORE_ID_PAIRS_H_
#define CROSSMINE_CORE_ID_PAIRS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/radix_sort.h"
#include "relational/types.h"

namespace crossmine {

/// The propagated IDs of one clause node (Definition 2) as a set of
/// (tuple, id) pairs, one per `id ∈ idset(tuple)`. Each pair packs
/// `tuple << 32 | id`, so a sorted vector orders pairs by tuple, then id.
/// Every `IdPairs` in the system is sorted and duplicate-free, except the
/// raw view `PropagateView` writes before it sorts, which only the literal
/// search reads; the pairs of one tuple form a contiguous *run* with
/// ascending ids. Tuples with an empty idset have no pair, so storage and
/// every walk cost what the live frontier reaches, never relation width.
///
/// Training ids are target tuple ids; `EvaluateClause` uses positions in
/// its query id list. Either way ids index the caller's `alive` mask.
using IdPair = uint64_t;
using IdPairs = std::vector<IdPair>;

inline IdPair MakeIdPair(TupleId tuple, uint32_t id) {
  return (uint64_t{tuple} << 32) | id;
}
inline TupleId PairTuple(IdPair p) { return static_cast<TupleId>(p >> 32); }
inline uint32_t PairId(IdPair p) { return static_cast<uint32_t>(p); }

/// End of the run of pairs starting at `lo` that share its tuple.
inline size_t TupleRunEnd(const IdPairs& pairs, size_t lo) {
  const TupleId t = PairTuple(pairs[lo]);
  size_t hi = lo + 1;
  while (hi < pairs.size() && PairTuple(pairs[hi]) == t) ++hi;
  return hi;
}

/// Sorts `pairs` ascending in linear time (`RadixSort` on the packed keys).
/// Propagation keys vary in ~14 bits per half, so a sort is about four byte
/// passes. `tmp` is reusable scratch; its contents on return are
/// unspecified.
inline void SortPairs(IdPairs* pairs, IdPairs* tmp) {
  RadixSort(pairs, tmp, [](IdPair p) { return p; });
}

/// Node-0 pairs: `(t, t)` for every target t with a set `alive` flag.
inline IdPairs IdentityPairs(const std::vector<uint8_t>& alive) {
  IdPairs pairs;
  for (TupleId t = 0; t < alive.size(); ++t) {
    if (alive[t]) pairs.push_back(MakeIdPair(t, t));
  }
  return pairs;
}

/// Drops every pair whose id has a 0 `alive` flag: "update IDs on every
/// active relation" after a literal shrank the alive set.
inline void DropDeadIds(IdPairs* pairs, const std::vector<uint8_t>& alive) {
  std::erase_if(*pairs, [&alive](IdPair p) { return !alive[PairId(p)]; });
}

}  // namespace crossmine

#endif  // CROSSMINE_CORE_ID_PAIRS_H_
