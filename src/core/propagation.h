#ifndef CROSSMINE_CORE_PROPAGATION_H_
#define CROSSMINE_CORE_PROPAGATION_H_

#include <cstdint>
#include <vector>

#include "core/id_pairs.h"
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
  /// (destination tuple, id) pairs, sorted and duplicate-free; empty, with
  /// nothing allocated, when `ok == false`.
  IdPairs pairs;
  /// False when a PropagationLimits guard rejected the edge.
  bool ok = true;
  /// Total ids attached to destination tuples: `pairs.size()` on success,
  /// the volume the guards judged otherwise.
  uint64_t total_ids = 0;
};

/// Reusable working memory for `PropagateIds`. One scratch per worker lane
/// amortizes the buffers across every propagation that lane runs, so after
/// warm-up only the result itself allocates.
struct PropagationScratch {
  /// (destination value slot, id) keys, one per distinct id reaching a
  /// join value; runs of one value slot are that value's merged idset
  IdPairs keys;
  /// start of each value's run in `keys`, plus an end sentinel
  std::vector<uint32_t> groups;
  /// (destination tuple, value run) per reached destination tuple
  IdPairs dests;
  /// `SortPairs` ping-pong buffer for `keys` and `dests`
  IdPairs tmp;
  /// Sorts run on `keys` / `dests`: the already-ordered inputs skip theirs.
  /// Coverage counts for tests; nothing reads them on the hot path.
  uint64_t key_sorts = 0;
  uint64_t dest_sorts = 0;
};

/// Propagates IDs along `edge` (Definition 2): every destination tuple `u`
/// receives `idset(u) = ∪ { idset(t) : t ∈ source, t.A = u.A }`. `src` holds
/// the source relation's (tuple, id) pairs.
///
/// If `alive` is non-null, only ids with a set flag are carried over — the
/// "update IDs on every active relation" filtering of Algorithm 2 fused
/// into the propagation.
///
/// The walk costs what the source pairs reach: each source tuple run probes
/// the destination's `AttrIndex` once (NULL never matches, SQL semantics),
/// and its ids are merged per join value by a radix sort (`SortPairs`) of
/// their `(value slot, id)` keys. The §4.3 guards are judged on the
/// per-value volumes (`|merged idset| × posting count`) before any output
/// pair exists, so a rejected edge allocates nothing. Only then are the
/// reached destination tuples radix-sorted and the pairs written, in
/// destination-tuple order. Either sort is skipped when its input is
/// already ordered.
///
/// Training (`ClauseBuilder`) and prediction (`EvaluateClause`) share this
/// routine; prediction passes no limits.
///
/// `scratch` (optional) reuses the grouping and sort buffers across calls.
PropagationResult PropagateIds(const Database& db, const JoinEdge& edge,
                               const IdPairs& src,
                               const std::vector<uint8_t>* alive,
                               const PropagationLimits& limits = {},
                               PropagationScratch* scratch = nullptr);

/// Refreshes a previously successful propagation after the alive mask
/// shrank: the pairs of dead ids are erased in place, then `total_ids` is
/// recomputed and the `limits` guards re-applied to the filtered volume.
///
/// When the alive mask only loses members between two propagation requests
/// (the Algorithm 2 invariant — appended literals only remove targets),
/// this produces a result identical to re-running `PropagateIds` with the
/// new mask, at the cost of one linear filter instead of a re-join. Returns
/// `result->ok` for convenience; a result that now trips a limit has its
/// pairs freed, exactly like a fresh failed propagation.
bool RefreshPropagation(PropagationResult* result,
                        const std::vector<uint8_t>& alive,
                        const PropagationLimits& limits);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_PROPAGATION_H_
