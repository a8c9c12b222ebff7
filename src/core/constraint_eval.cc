#include "core/constraint_eval.h"

#include <algorithm>

#include "common/macros.h"

namespace crossmine {

bool TupleSatisfies(const Relation& rel, TupleId t, const Constraint& c) {
  CM_CHECK(c.agg == AggOp::kNone);
  const Attribute& attr = rel.schema().attr(c.attr);
  if (attr.kind == AttrKind::kNumerical) {
    double v = rel.Double(t, c.attr);
    return c.cmp == CmpOp::kLe ? v <= c.threshold : v >= c.threshold;
  }
  int64_t v = rel.Int(t, c.attr);
  if (v == kNullValue) return false;
  CM_CHECK(c.cmp == CmpOp::kEq);
  return v == c.category;
}

bool AggregateSatisfies(const Constraint& c, uint32_t count, double sum) {
  if (count == 0) return false;
  double value = 0;
  switch (c.agg) {
    case AggOp::kCount:
      value = static_cast<double>(count);
      break;
    case AggOp::kSum:
      value = sum;
      break;
    case AggOp::kAvg:
      value = sum / count;
      break;
    case AggOp::kNone:
      CM_CHECK(false);
      break;
  }
  return c.cmp == CmpOp::kLe ? value <= c.threshold : value >= c.threshold;
}

void ApplyConstraint(const Relation& rel, const Constraint& c,
                     const std::vector<uint8_t>& alive, IdPairs* pairs,
                     std::vector<uint8_t>* satisfied) {
  std::fill(satisfied->begin(), satisfied->end(), 0);
  IdPairs& p = *pairs;

  if (c.agg == AggOp::kNone) {
    // Bind: keep the runs of satisfying tuples and flag their alive ids.
    size_t kept = 0;
    for (size_t lo = 0; lo < p.size();) {
      const size_t hi = TupleRunEnd(p, lo);
      if (TupleSatisfies(rel, PairTuple(p[lo]), c)) {
        for (size_t k = lo; k < hi; ++k) {
          const uint32_t id = PairId(p[k]);
          if (alive[id]) (*satisfied)[id] = 1;
          p[kept++] = p[k];
        }
      }
      lo = hi;
    }
    p.resize(kept);
    return;
  }

  // Aggregation constraint: accumulate per-id count / sum over all joinable
  // tuples, then test the aggregate.
  const bool needs_sum = c.agg != AggOp::kCount;
  std::vector<uint32_t> count(satisfied->size(), 0);
  std::vector<double> sum(needs_sum ? satisfied->size() : 0, 0.0);
  for (size_t lo = 0; lo < p.size();) {
    const size_t hi = TupleRunEnd(p, lo);
    const double v = needs_sum ? rel.Double(PairTuple(p[lo]), c.attr) : 0.0;
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t id = PairId(p[k]);
      if (!alive[id]) continue;
      ++count[id];
      if (needs_sum) sum[id] += v;
    }
    lo = hi;
  }
  for (size_t id = 0; id < count.size(); ++id) {
    if (AggregateSatisfies(c, count[id], needs_sum ? sum[id] : 0.0)) {
      (*satisfied)[id] = 1;
    }
  }
}

}  // namespace crossmine
