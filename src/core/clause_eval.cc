#include "core/clause_eval.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"
#include "core/constraint_eval.h"

namespace crossmine {

namespace {

/// One (tuple, position-in-ids) pair of a clause node, packed so that
/// ordering the keys orders pairs by tuple, then position.
using Pair = uint64_t;

Pair MakePair(TupleId tuple, uint32_t pos) {
  return (uint64_t{tuple} << 32) | pos;
}
TupleId TupleOf(Pair p) { return static_cast<TupleId>(p >> 32); }
uint32_t PosOf(Pair p) { return static_cast<uint32_t>(p); }

/// End of the run of pairs starting at `lo` that share its tuple.
size_t TupleRunEnd(const std::vector<Pair>& pairs, size_t lo) {
  const TupleId t = TupleOf(pairs[lo]);
  size_t hi = lo + 1;
  while (hi < pairs.size() && TupleOf(pairs[hi]) == t) ++hi;
  return hi;
}

/// Propagates `src` along `edge`: every destination tuple joined with a
/// source tuple inherits that tuple's positions (Definition 2, per query
/// ID). Source tuples are probed once each; the output is sorted and
/// duplicate-free, since source tuples sharing a join value reach the same
/// destinations.
std::vector<Pair> Hop(const Database& db, const JoinEdge& edge,
                      const std::vector<Pair>& src) {
  const Column<int64_t>& col =
      db.relation(edge.from_rel).IntColumn(edge.from_attr);
  // The handle pins the index even if a memory budget evicts it mid-hop.
  std::shared_ptr<const AttrIndex> handle =
      db.relation(edge.to_rel).GetAttrIndex(edge.to_attr);
  const AttrIndex& index = *handle;
  std::vector<Pair> out;
  for (size_t lo = 0; lo < src.size();) {
    const size_t hi = TupleRunEnd(src, lo);
    const int64_t value = col[TupleOf(src[lo])];
    const size_t v =
        value == kNullValue ? AttrIndex::npos : index.FindValue(value);
    if (v != AttrIndex::npos) {
      const TupleId* posting = index.posting(v);
      const uint32_t count = index.posting_count(v);
      for (uint32_t i = 0; i < count; ++i) {
        for (size_t k = lo; k < hi; ++k) {
          out.push_back(MakePair(posting[i], PosOf(src[k])));
        }
      }
    }
    lo = hi;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Plain constraint: keeps only the pairs whose tuple satisfies `c` (the
/// literal binds those tuples for onward hops) and flags their positions.
void Bind(const Relation& rel, const Constraint& c, std::vector<Pair>* pairs,
          std::vector<uint8_t>* satisfied) {
  size_t kept = 0;
  for (size_t lo = 0; lo < pairs->size();) {
    const size_t hi = TupleRunEnd(*pairs, lo);
    if (TupleSatisfies(rel, TupleOf((*pairs)[lo]), c)) {
      for (size_t k = lo; k < hi; ++k) {
        (*satisfied)[PosOf((*pairs)[k])] = 1;
        (*pairs)[kept++] = (*pairs)[k];
      }
    }
    lo = hi;
  }
  pairs->resize(kept);
}

/// Aggregation constraint: folds count / sum per position over all pairs,
/// in ascending tuple order per position, and flags the positions whose
/// aggregate passes. The pairs themselves stay (no binding).
void Aggregate(const Relation& rel, const Constraint& c,
               const std::vector<Pair>& pairs,
               std::vector<uint8_t>* satisfied) {
  const bool needs_sum = c.agg != AggOp::kCount;
  std::vector<uint32_t> count(satisfied->size(), 0);
  std::vector<double> sum(needs_sum ? satisfied->size() : 0, 0.0);
  for (size_t lo = 0; lo < pairs.size();) {
    const size_t hi = TupleRunEnd(pairs, lo);
    const double v = needs_sum ? rel.Double(TupleOf(pairs[lo]), c.attr) : 0.0;
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t pos = PosOf(pairs[k]);
      ++count[pos];
      if (needs_sum) sum[pos] += v;
    }
    lo = hi;
  }
  for (size_t pos = 0; pos < count.size(); ++pos) {
    if (AggregateSatisfies(c, count[pos], needs_sum ? sum[pos] : 0.0)) {
      (*satisfied)[pos] = 1;
    }
  }
}

}  // namespace

std::vector<uint8_t> EvaluateClause(const Database& db, const Clause& clause,
                                    const std::vector<TupleId>& ids,
                                    uint64_t* propagated_pairs) {
  const TupleId num_targets = db.target_relation().num_tuples();
  std::vector<uint8_t> alive(ids.size(), 1);
  size_t num_alive = ids.size();

  std::vector<std::vector<Pair>> nodes;
  nodes.reserve(clause.nodes().size());
  std::vector<Pair>& root = nodes.emplace_back();
  root.reserve(ids.size());
  for (size_t pos = 0; pos < ids.size(); ++pos) {
    CM_CHECK(ids[pos] < num_targets);
    CM_CHECK(pos == 0 || ids[pos - 1] < ids[pos]);
    root.push_back(MakePair(ids[pos], static_cast<uint32_t>(pos)));
  }

  uint64_t pairs = 0;
  std::vector<uint8_t> satisfied(ids.size());
  for (const ComplexLiteral& lit : clause.literals()) {
    if (num_alive == 0) break;
    // Materialize the literal's path nodes. Nodes are created in literal
    // order, so the source node is always materialized already.
    CM_CHECK(static_cast<size_t>(lit.source_node) < nodes.size());
    size_t cur = static_cast<size_t>(lit.source_node);
    for (size_t i = 0; i < lit.edge_path.size(); ++i) {
      CM_CHECK(nodes.size() == static_cast<size_t>(lit.path_nodes[i]));
      const JoinEdge& edge = db.edges()[static_cast<size_t>(lit.edge_path[i])];
      nodes.push_back(Hop(db, edge, nodes[cur]));
      pairs += nodes.back().size();
      cur = nodes.size() - 1;
    }

    const size_t cnode = static_cast<size_t>(lit.ConstraintNode());
    const Relation& rel = db.relation(clause.nodes()[cnode].relation);
    std::fill(satisfied.begin(), satisfied.end(), 0);
    if (lit.constraint.agg == AggOp::kNone) {
      Bind(rel, lit.constraint, &nodes[cnode], &satisfied);
    } else {
      Aggregate(rel, lit.constraint, nodes[cnode], &satisfied);
    }

    bool pruned = false;
    for (size_t pos = 0; pos < alive.size(); ++pos) {
      if (alive[pos] && !satisfied[pos]) {
        alive[pos] = 0;
        --num_alive;
        pruned = true;
      }
    }
    if (!pruned) continue;
    for (std::vector<Pair>& node : nodes) {
      std::erase_if(node, [&alive](Pair p) { return !alive[PosOf(p)]; });
    }
  }
  if (propagated_pairs != nullptr) *propagated_pairs += pairs;
  return alive;
}

}  // namespace crossmine
