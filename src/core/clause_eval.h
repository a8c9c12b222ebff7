#ifndef CROSSMINE_CORE_CLAUSE_EVAL_H_
#define CROSSMINE_CORE_CLAUSE_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/literal.h"
#include "relational/database.h"

namespace crossmine {

/// Determines which of the target tuples `ids` satisfy a clause (§5.3): each
/// query ID is propagated along the prop-path of every literal in order, and
/// IDs failing a literal's constraint are pruned. `ids` must be sorted
/// ascending without duplicates; the result holds one 0/1 flag per entry of
/// `ids`, in the same order.
///
/// Each clause node holds the (tuple, position-in-`ids`) pairs reachable
/// from the live query IDs (`IdPairs`, sorted by tuple then position), and
/// every step runs on the pair routines training uses, with positions in
/// place of target ids:
///  * a hop is `PropagateIds` (one `AttrIndex` probe per source tuple run,
///    NULL never matches), with no §4.3 limits;
///  * a literal is `ApplyConstraint`: a plain constraint drops the node's
///    pairs whose tuple fails it (the literal binds the tuples onward hops
///    start from) and satisfies the positions it keeps; an aggregation
///    folds count / sum per position in ascending tuple order, the order
///    training sums in, so thresholds compare bit-identical values.
/// A position that fails a literal drops out of every node. The cost of a
/// clause is therefore O(reachable pairs · log) — independent of relation
/// width — which is what keeps single-ID serving flat as the database grows.
///
/// Because training and prediction share these routines, the referees are
/// the ones that share no code with them: the golden models (whose stored
/// supports come from the §5.3 re-estimation through this function), the
/// per-ID `std::set` oracle of `predict_referee_test`, and the nested-loop
/// oracle of `propagation_oracle_test`.
///
/// `propagated_pairs` (optional) is incremented by the number of pairs the
/// hops materialize — the frontier work behind the `predict.propagated_pairs`
/// metric. It is additive over IDs, so any partition of a query counts the
/// same total.
std::vector<uint8_t> EvaluateClause(const Database& db, const Clause& clause,
                                    const std::vector<TupleId>& ids,
                                    uint64_t* propagated_pairs = nullptr);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_CLAUSE_EVAL_H_
