#ifndef CROSSMINE_CORE_CONSTRAINT_EVAL_H_
#define CROSSMINE_CORE_CONSTRAINT_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/id_pairs.h"
#include "core/literal.h"
#include "relational/relation.h"

namespace crossmine {

/// True iff tuple `t` of `rel` meets the (non-aggregation) constraint.
bool TupleSatisfies(const Relation& rel, TupleId t, const Constraint& c);

/// True iff an aggregation constraint holds for a target whose joinable
/// tuples number `count` with attribute total `sum` (ignored for kCount).
/// A target with no joinable tuple never satisfies an aggregation.
bool AggregateSatisfies(const Constraint& c, uint32_t count, double sum);

/// Applies a chosen constraint to the (tuple, id) pairs of the clause node
/// it targets:
///
///  * For categorical / numerical constraints, the satisfying id set is
///    `∪ { idset(u) : tuple u satisfies c }` (Corollary 1). The runs of
///    non-satisfying tuples are erased, so onward propagation from this
///    node follows only the tuples bound by the literal (ILP variable
///    binding semantics).
///  * For aggregation constraints, count / sum per id are folded over all
///    pairs in (tuple, id) order — per id, ascending tuple order, the one
///    summation order training and prediction share — and tested. The pairs
///    are left untouched (the aggregate is a property of the id, not of any
///    single joined tuple). Ids with no pair never satisfy an aggregation
///    constraint.
///
/// Only ids with `alive[id] != 0` are reported in `satisfied`, which must be
/// pre-sized to the id universe (target tuples in training, query positions
/// in `EvaluateClause`) and is overwritten with 0/1 flags.
void ApplyConstraint(const Relation& rel, const Constraint& c,
                     const std::vector<uint8_t>& alive, IdPairs* pairs,
                     std::vector<uint8_t>* satisfied);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_CONSTRAINT_EVAL_H_
