#ifndef CROSSMINE_CORE_CONSTRAINT_EVAL_H_
#define CROSSMINE_CORE_CONSTRAINT_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/idset_store.h"
#include "core/literal.h"
#include "relational/relation.h"

namespace crossmine {

/// True iff tuple `t` of `rel` meets the (non-aggregation) constraint.
bool TupleSatisfies(const Relation& rel, TupleId t, const Constraint& c);

/// True iff an aggregation constraint holds for a target whose joinable
/// tuples number `count` with attribute total `sum` (ignored for kCount).
/// A target with no joinable tuple never satisfies an aggregation.
bool AggregateSatisfies(const Constraint& c, uint32_t count, double sum);

/// Applies a chosen constraint to a clause node that has idsets attached:
///
///  * For categorical / numerical constraints, the satisfying target set is
///    `∪ { idset(u) : tuple u satisfies c }` (Corollary 1); the idsets of
///    non-satisfying tuples are cleared so that onward propagation from this
///    node follows only the tuples bound by the literal (ILP variable
///    binding semantics).
///  * For aggregation constraints, per-target aggregates over all joinable
///    tuples are computed and tested; tuple idsets are left untouched (the
///    aggregate is a property of the target tuple, not of any single joined
///    tuple). Targets with no joinable tuple never satisfy an aggregation
///    constraint.
///
/// Only target ids with `alive[id] != 0` are reported in `satisfied`
/// (which must be pre-sized to the number of target tuples and is
/// overwritten with 0/1 flags).
///
/// The satisfying-target union is built word-parallel — bitmap idsets OR
/// into a dense accumulator (aliased spans once), sparse idsets scatter
/// bits — then one AND against the packed alive mask decodes into
/// `satisfied`.
void ApplyConstraint(const Relation& rel, const Constraint& c,
                     const std::vector<uint8_t>& alive, IdSetStore* idsets,
                     std::vector<uint8_t>* satisfied);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_CONSTRAINT_EVAL_H_
