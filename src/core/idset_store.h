#ifndef CROSSMINE_CORE_IDSET_STORE_H_
#define CROSSMINE_CORE_IDSET_STORE_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "core/bitmap_ops.h"
#include "relational/types.h"

namespace crossmine {

/// Reusable working memory for `IdSetStore::AssignUnionOfSets`: the span
/// dedup list and the sparse-path merge buffer. One scratch per worker lane
/// keeps the hot union path allocation-free after warm-up.
struct UnionScratch {
  /// (kind<<32 | arena offset, cardinality) per contributing span.
  std::vector<std::pair<uint64_t, uint32_t>> spans;
  /// gathered ids for the sparse (sort+dedup) path
  std::vector<TupleId> merge;
};

/// Owns every idset of one propagation result in pooled arena storage.
///
/// The idsets of Definition 2 — one set of target-tuple IDs per tuple of
/// some relation — used to be a `std::vector<std::vector<TupleId>>`: one
/// heap allocation per non-empty tuple, re-made on every propagation and
/// refresh. The store replaces that with two shared arenas and a per-set
/// descriptor:
///
///     entries_:  [off,len,kind] [off,len,kind] [off,len,kind] ...
///                     │              │              │
///     pool_:     [.. sorted ids ..][.. sorted ids ..]          (kind: sparse)
///     words_:    [... universe/64 bitmap words ...]            (kind: bitmap)
///
/// Per-set representation is adaptive: small sets are sorted-unique spans of
/// `pool_`; sets whose cardinality reaches `bitmap_threshold()` are stored
/// as fixed-size dense bitmaps over the target universe (one bit per target
/// id), which is the break-even point where the bitmap is no larger than
/// the sorted array. Both representations enumerate ids in ascending order,
/// so the representation is unobservable to any consumer — the ground for
/// the byte-identical-models guarantee across this refactor.
///
/// Destination tuples sharing a join value receive *aliased* descriptors
/// onto one merged span instead of per-tuple copies (`Alias`), which is
/// where most of the old allocation volume went. `Clear` only zeroes the
/// descriptor; the span itself is reclaimed by the next `FilterAndCompact`,
/// which rewrites both arenas in place (never allocating, never growing)
/// while preserving aliasing.
class IdSetStore {
 public:
  IdSetStore() = default;

  /// Re-initializes to `num_sets` empty sets over target ids
  /// `[0, universe)`. Keeps arena capacity for reuse.
  void Reset(uint32_t num_sets, TupleId universe);

  /// Root-node initialization: one set per target tuple, `idset(t) = {t}`
  /// for every tuple with `alive[t]` set, over a universe of
  /// `alive.size()` targets.
  void InitIdentity(const std::vector<uint8_t>& alive);

  /// Releases all storage; `num_sets()` becomes 0 (the failed-propagation
  /// state, like the old `idsets.clear()`).
  void Free();

  uint32_t num_sets() const { return static_cast<uint32_t>(entries_.size()); }
  TupleId universe() const { return universe_; }
  bool empty(uint32_t s) const { return entries_[s].count == 0; }
  /// |idset(s)|, O(1) for either representation.
  uint32_t Cardinality(uint32_t s) const { return entries_[s].count; }
  /// Sum of all cardinalities (aliases counted per set).
  uint64_t total_ids() const;

  /// Sets `idset(s)` from `n` sorted-unique ids.
  void AssignSorted(uint32_t s, const TupleId* ids, uint32_t n);
  /// Sets `idset(s) = {id}`.
  void AssignSingle(uint32_t s, TupleId id);
  /// Sets `idset(s)` to the union of the (possibly unsorted, duplicated)
  /// ids in `*buf`. Buffers past the bitmap threshold scatter straight into
  /// a dense bitmap (no sort; the popcount is the cardinality); smaller
  /// buffers are normalized in `*buf` as a side effect, skipping the sort
  /// for already-sorted input (the single-contributor fast path).
  void AssignUnion(uint32_t s, std::vector<TupleId>* buf);
  /// Sets `idset(s)` to `∪ { src.idset(t) : t ∈ src_sets } ∩ alive` — the
  /// per-join-value merge of PropagateIds, fused with the alive filter.
  /// Inputs that are bitmap-heavy (any bitmap-kind contributor, or summed
  /// cardinality past the bitmap threshold) are merged word-parallel:
  /// contributing spans are deduplicated (aliased sets contribute once),
  /// bitmap spans OR in and sparse spans scatter, then one AND with
  /// `alive_words` and one popcount — no gather, no sort. Smaller all-sparse
  /// inputs are gathered (filtering on the `alive` byte mask) and sorted.
  /// `alive` and `alive_words` are the same mask in both encodings (both
  /// null for no filtering). Returns the new cardinality.
  uint32_t AssignUnionOfSets(uint32_t s, const IdSetStore& src,
                             const TupleId* src_sets, uint32_t n,
                             const std::vector<uint8_t>* alive,
                             const uint64_t* alive_words,
                             UnionScratch* scratch);
  /// Makes `idset(s)` share `idset(source)`'s storage. Clearing one alias
  /// later does not affect the others; compaction preserves the sharing.
  void Alias(uint32_t s, uint32_t source) {
    entries_[s] = entries_[source];
    NoteCount(s, entries_[s].count);
  }
  /// Empties `idset(s)`. O(1): the descriptor is zeroed, the span stays in
  /// the arena (possibly still referenced by aliases) until the next
  /// `FilterAndCompact`. Note: re-assigning a non-empty set likewise
  /// abandons its old span until compaction.
  void Clear(uint32_t s) {
    entries_[s] = Entry{};
    NoteCount(s, 0);
  }

  /// Visits the ids of `idset(s)` in ascending order.
  template <typename Fn>
  void ForEach(uint32_t s, Fn&& fn) const {
    const Entry& e = entries_[s];
    if (e.count == 0) return;
    if (e.kind == Entry::kSparse) {
      const TupleId* p = pool_.data() + e.offset;
      for (uint32_t i = 0; i < e.count; ++i) fn(p[i]);
      return;
    }
    const uint64_t* w = words_.data() + e.offset;
    uint32_t left = e.count;
    for (uint32_t wi = 0; left > 0; ++wi) {
      uint64_t word = w[wi];
      TupleId base = static_cast<TupleId>(wi) * 64;
      while (word != 0) {
        fn(base + static_cast<TupleId>(__builtin_ctzll(word)));
        word &= word - 1;
        --left;
      }
    }
  }

  /// Appends the members of `idset(s)` (only those with a set `alive` flag
  /// when `alive` is non-null) to `*out`, in ascending order — the gather
  /// half of the propagation merge.
  void AppendSet(uint32_t s, const std::vector<uint8_t>* alive,
                 std::vector<TupleId>* out) const;

  /// Materializes `idset(s)` as a plain sorted vector (test/compat path).
  std::vector<TupleId> ToVector(uint32_t s) const;

  /// Drops every id whose `alive` flag is 0 and compacts both arenas in
  /// place: surviving spans/bitmaps slide down over reclaimed space and the
  /// arenas shrink to the live footprint. Never allocates and never grows
  /// the arenas (the fix for the old FilterIdSets partial-shrink leak, where
  /// only *emptied* sets released capacity). Aliased sets keep sharing.
  void FilterAndCompact(const std::vector<uint8_t>& alive);

  /// Arena capacity in bytes (id pool + bitmap words) — the memory
  /// footprint `train.propagation.peak_id_bytes` tracks.
  uint64_t arena_bytes() const {
    return pool_.capacity() * sizeof(TupleId) +
           words_.capacity() * sizeof(uint64_t);
  }
  /// Bytes addressed by live data (arena size, not capacity).
  uint64_t live_id_bytes() const {
    return pool_.size() * sizeof(TupleId) + words_.size() * sizeof(uint64_t);
  }

  /// Cardinality at which a set switches to the dense bitmap form:
  /// `max(16, 2 * ceil(universe / 64))`, the point where the bitmap's
  /// fixed `universe / 8` bytes no longer exceed the sorted array's
  /// `4 * cardinality` bytes.
  uint32_t bitmap_threshold() const { return bitmap_threshold_; }
  /// Whether `idset(s)` currently uses the bitmap representation.
  bool IsBitmap(uint32_t s) const {
    return entries_[s].kind == Entry::kBitmap && entries_[s].count > 0;
  }
  /// Fixed word count of every bitmap-kind set (`ceil(universe / 64)`).
  uint32_t words_per_set() const { return words_per_set_; }
  /// Bitmap words of `idset(s)`; only valid when `IsBitmap(s)`.
  const uint64_t* bitmap_words(uint32_t s) const {
    return words_.data() + entries_[s].offset;
  }
  /// Sorted ids of `idset(s)`; only valid for non-empty sparse sets.
  const TupleId* sparse_ids(uint32_t s) const {
    return pool_.data() + entries_[s].offset;
  }
  /// Identity of `idset(s)`'s storage span: aliased sets (and only they)
  /// share a key. Keys of empty sets are not meaningful.
  uint64_t span_key(uint32_t s) const {
    return (static_cast<uint64_t>(entries_[s].kind) << 32) |
           entries_[s].offset;
  }

  /// Bitmap over set indices with one bit per currently non-empty set,
  /// maintained exactly by every assignment/clear/compaction. Lets
  /// consumers (propagation grouping, refresh recounts) visit only the
  /// non-empty sets instead of scanning every descriptor.
  const uint64_t* nonempty_words() const { return nonempty_words_.data(); }
  size_t nonempty_num_words() const { return nonempty_words_.size(); }
  /// Visits every non-empty set index, ascending.
  template <typename Fn>
  void ForEachNonEmptySet(Fn&& fn) const {
    bitmap_ops::ForEachBit(nonempty_words_.data(), nonempty_words_.size(),
                           static_cast<Fn&&>(fn));
  }

 private:
  /// 8 bytes: stores keep one descriptor per destination tuple, so the
  /// descriptor width sets training's resident footprint. The cardinality
  /// fits 31 bits because the universe does (checked in `Reset`).
  struct Entry {
    enum Kind : uint8_t { kSparse = 0, kBitmap = 1 };
    uint32_t offset = 0;     ///< into pool_ (sparse) or words_ (bitmap)
    uint32_t count : 31 = 0;  ///< cardinality; 0 == empty set
    uint32_t kind : 1 = kSparse;
  };
  static_assert(sizeof(Entry) == 8);

  /// Appends a bitmap for `n` sorted ids and returns its word offset.
  uint32_t AppendBitmap(const TupleId* ids, uint32_t n);

  /// Maintains the non-empty bit of set `s` after its count became `count`.
  /// Every path that writes a descriptor calls this — the bitmap is exact,
  /// never merely a hint.
  void NoteCount(uint32_t s, uint32_t count) {
    uint64_t bit = uint64_t{1} << (s & 63);
    if (count != 0) {
      nonempty_words_[s >> 6] |= bit;
    } else {
      nonempty_words_[s >> 6] &= ~bit;
    }
  }

  std::vector<Entry> entries_;
  std::vector<TupleId> pool_;    ///< sparse spans, bump-allocated
  std::vector<uint64_t> words_;  ///< bitmap blocks of words_per_set_ words
  /// Packed alive mask, rebuilt by FilterAndCompact when bitmap entries
  /// exist; kept as a member so refreshes stay allocation-free.
  std::vector<uint64_t> alive_words_;
  /// One bit per non-empty set (see nonempty_words()).
  std::vector<uint64_t> nonempty_words_;
  /// Compaction-order scratch of FilterAndCompact; member so repeated
  /// refreshes of a cached propagation stop allocating.
  std::vector<uint32_t> order_;
  TupleId universe_ = 0;
  uint32_t words_per_set_ = 0;
  uint32_t bitmap_threshold_ = 0;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_IDSET_STORE_H_
