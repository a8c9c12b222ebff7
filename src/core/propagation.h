#ifndef CROSSMINE_CORE_PROPAGATION_H_
#define CROSSMINE_CORE_PROPAGATION_H_

#include <cstdint>
#include <vector>

#include "core/idset_store.h"
#include "relational/database.h"

namespace crossmine {

/// Guards against the two counter-productive propagation patterns of §4.3:
/// very large fan-outs and runaway total ID volume. Zero means unlimited.
struct PropagationLimits {
  /// If > 0, the propagation fails when the *average* number of IDs per
  /// non-empty destination tuple exceeds this (a very unselective link).
  double max_avg_fanout = 0.0;
  /// If > 0, the propagation fails once the total number of propagated IDs
  /// exceeds this (memory guard).
  uint64_t max_total_ids = 0;
};

/// Outcome of one tuple ID propagation step.
struct PropagationResult {
  /// One idset per destination tuple, arena-backed; freed (`num_sets() == 0`)
  /// when `ok == false`.
  IdSetStore idsets;
  /// False when a PropagationLimits guard rejected the edge.
  bool ok = true;
  /// Total ids attached to destination tuples.
  uint64_t total_ids = 0;
};

/// Reusable working memory for `PropagateIds` merges. One scratch per worker
/// lane amortizes the buffers across every propagation that lane runs —
/// after warm-up the hot path stops allocating. (The per-join-value grouping
/// itself comes from the source relation's cached hash index, so no grouping
/// buffers live here.)
struct PropagationScratch {
  /// (join value, source tuple) pairs of the non-empty source tuples,
  /// sorted to form the per-value buckets
  std::vector<std::pair<int64_t, TupleId>> groups;
  /// tuple ids of the bucket currently being merged
  std::vector<TupleId> bucket;
  /// span-dedup / gather scratch of AssignUnionOfSets
  UnionScratch union_scratch;
  /// packed alive mask handed to the word-parallel union filter
  std::vector<uint64_t> alive_words;
};

/// Propagates tuple IDs along `edge` (Definition 2): every destination tuple
/// `u` receives `idset(u) = ∪ { idset(t) : t ∈ source, t.A = u.A }`.
///
/// `src_idsets` is parallel to the source relation's tuples. If `alive` is
/// non-null (parallel to the target relation), only alive IDs are carried
/// over — this is the "update IDs on every active relation" filtering of
/// Algorithm 2 fused into the propagation.
///
/// Destination tuples sharing a join value alias one merged arena span in
/// the result store instead of receiving copies; `total_ids` and the limit
/// guards still count every destination separately, exactly like the
/// per-destination copies they replace.
///
/// `scratch` (optional) reuses grouping and merge buffers across calls.
///
/// Per-value merges whose summed input cardinality passes the store's bitmap
/// threshold run word-parallel (OR + alive-mask AND + popcount); smaller
/// ones gather and sort (see `IdSetStore::AssignUnionOfSets`).
///
/// NULL join values never match (SQL semantics).
PropagationResult PropagateIds(const Database& db, const JoinEdge& edge,
                               const IdSetStore& src_idsets,
                               const std::vector<uint8_t>* alive,
                               const PropagationLimits& limits = {},
                               PropagationScratch* scratch = nullptr);

/// Refreshes a previously successful propagation after the alive mask
/// shrank: one in-place `FilterAndCompact` pass over the result's arena
/// drops dead IDs and reclaims their storage, then `total_ids` is recomputed
/// and the `limits` guards re-applied to the filtered volume.
///
/// When the alive mask only loses members between two propagation requests
/// (the Algorithm 2 invariant — appended literals only remove targets),
/// this produces a result identical to re-running `PropagateIds` with the
/// new mask, at the cost of one linear compaction instead of a full
/// re-join. Returns `result->ok` for convenience; a result that now trips
/// a limit has its store freed, exactly like a fresh failed propagation.
bool RefreshPropagation(PropagationResult* result,
                        const std::vector<uint8_t>& alive,
                        const PropagationLimits& limits);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_PROPAGATION_H_
