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
                     const std::vector<uint8_t>& alive, IdSetStore* idsets,
                     std::vector<uint8_t>* satisfied) {
  CM_CHECK(idsets->num_sets() == rel.num_tuples());
  std::fill(satisfied->begin(), satisfied->end(), 0);

  if (c.agg == AggOp::kNone) {
    // Word-parallel union of the satisfying tuples' idsets, then one
    // masked decode. Aliased spans (destinations that shared a join
    // value during propagation) are ORed once, not per alias.
    size_t words = bitmap_ops::WordsForBits(satisfied->size());
    std::vector<uint64_t> acc(words, 0);
    constexpr uint64_t kNoSpan = ~uint64_t{0};
    uint64_t last_span = kNoSpan;
    for (TupleId t = 0; t < rel.num_tuples(); ++t) {
      if (idsets->empty(t)) continue;
      if (!TupleSatisfies(rel, t, c)) {
        idsets->Clear(t);
        continue;
      }
      uint64_t span = idsets->span_key(t);
      if (span == last_span) continue;
      last_span = span;
      if (idsets->IsBitmap(t)) {
        bitmap_ops::Or(acc.data(), idsets->bitmap_words(t),
                       idsets->words_per_set());
      } else {
        const TupleId* ids = idsets->sparse_ids(t);
        uint32_t n = idsets->Cardinality(t);
        for (uint32_t i = 0; i < n; ++i) {
          bitmap_ops::SetBit(acc.data(), ids[i]);
        }
      }
    }
    std::vector<uint64_t> alive_words(words);
    bitmap_ops::PackBytes(alive.data(), alive.size(), alive_words.data());
    bitmap_ops::And(acc.data(), alive_words.data(), words);
    bitmap_ops::ForEachBit(acc.data(), words,
                           [&](TupleId id) { (*satisfied)[id] = 1; });
    return;
  }

  // Aggregation constraint: accumulate per-target count / sum over all
  // joinable tuples, then test the aggregate.
  size_t num_targets = satisfied->size();
  std::vector<uint32_t> count(num_targets, 0);
  std::vector<double> sum;
  if (c.agg != AggOp::kCount) sum.assign(num_targets, 0.0);
  for (TupleId t = 0; t < rel.num_tuples(); ++t) {
    if (idsets->empty(t)) continue;
    double v = (c.agg == AggOp::kCount) ? 0.0 : rel.Double(t, c.attr);
    idsets->ForEach(t, [&](TupleId id) {
      if (!alive[id]) return;
      ++count[id];
      if (c.agg != AggOp::kCount) sum[id] += v;
    });
  }
  for (size_t id = 0; id < num_targets; ++id) {
    if (AggregateSatisfies(c, count[id], sum.empty() ? 0.0 : sum[id])) {
      (*satisfied)[id] = 1;
    }
  }
}

}  // namespace crossmine
