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
};

/// Reusable working memory for `PropagateView` and `PropagateIds`. One
/// scratch per worker lane amortizes the buffers across every propagation
/// that lane runs, so after warm-up only a materialized result allocates.
struct PropagationScratch {
  /// The lane's current hop, as `PropagateView` wrote it; valid until the
  /// lane's next propagation
  IdPairs view;
  /// `SortPairs` ping-pong buffer for `view`
  IdPairs tmp;
};

/// Propagates IDs along `edge` (Definition 2) into `scratch->view`: every
/// destination tuple `u` receives `idset(u) = ∪ { idset(t) : t ∈ source,
/// t.A = u.A }`. `src` holds the source relation's (tuple, id) pairs, and
/// only ids with a set `alive` flag are carried over — the "update IDs on
/// every active relation" filtering of Algorithm 2 fused into the
/// propagation.
///
/// Each source tuple run probes the destination's `AttrIndex` once (NULL
/// never matches, SQL semantics), and every posting tuple `u` of the value
/// receives `(u, id)` for each alive id of the run, in source order. So
/// the walk costs what the source pairs reach, a destination tuple's pairs
/// may be scattered, and an id two source tuples carry to one destination
/// tuple may appear twice. With `distinct`, the view is then radix-sorted
/// (`SortPairs`, skipped when already sorted) and deduplicated, which makes
/// it exactly the hop's idsets.
///
/// `LiteralSearcher::FindBest` counts distinct targets, so its categorical
/// and numerical scans score a raw view exactly as the distinct one. Its
/// aggregation scan needs `distinct`.
///
/// Returns the §4.3 verdict on the hop's distinct pairs. The view's memory
/// is bounded while it is written: whenever it has grown by more than
/// `max_total_ids` since its last compaction, or on an FK–FK edge by more
/// than the distinct pairs it held then (at least 2^16), it is sorted and
/// deduplicated, and a compacted view over `max_total_ids` rejects at once.
/// So a view never holds more than twice the cap plus one source run's
/// ids. An FK–FK view also holds at most twice its distinct pairs plus
/// 2^16 and one source run, however many source tuples share a join value;
/// an FK -> PK view holds at most its source's pairs, and a PK -> FK view
/// repeats none. Without a fan-out guard, a finished view no larger than
/// the cap passes as is (its distinct volume cannot exceed it); otherwise
/// the view is deduplicated and judged. A rejected view's contents are
/// unspecified.
bool PropagateView(const Database& db, const JoinEdge& edge,
                   const IdPairs& src, const std::vector<uint8_t>& alive,
                   const PropagationLimits& limits, bool distinct,
                   PropagationScratch* scratch);

/// The hop of `PropagateView` with `distinct`, materialized: on success,
/// `pairs` is an exact-size copy of the distinct view, so its capacity does
/// not depend on the scratch the hop ran in. A rejected edge allocates no
/// pairs.
///
/// Training (`ClauseBuilder`) and prediction (`EvaluateClause`) share this
/// routine; prediction passes no limits.
///
/// `scratch` (optional) reuses the view and sort buffers across calls.
PropagationResult PropagateIds(const Database& db, const JoinEdge& edge,
                               const IdPairs& src,
                               const std::vector<uint8_t>& alive,
                               const PropagationLimits& limits = {},
                               PropagationScratch* scratch = nullptr);

/// Refreshes a previously successful propagation after the alive mask
/// shrank: the pairs of dead ids are erased in place, then the `limits`
/// guards are re-applied to the filtered volume.
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
