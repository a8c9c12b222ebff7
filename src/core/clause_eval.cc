#include "core/clause_eval.h"

#include "common/macros.h"
#include "core/constraint_eval.h"
#include "core/propagation.h"

namespace crossmine {

std::vector<uint8_t> EvaluateClause(const Database& db, const Clause& clause,
                                    const std::vector<TupleId>& ids,
                                    uint64_t* propagated_pairs) {
  const TupleId num_targets = db.target_relation().num_tuples();
  std::vector<uint8_t> alive(ids.size(), 1);
  size_t num_alive = ids.size();

  std::vector<IdPairs> nodes;
  nodes.reserve(clause.nodes().size());
  IdPairs& root = nodes.emplace_back();
  root.reserve(ids.size());
  for (size_t pos = 0; pos < ids.size(); ++pos) {
    CM_CHECK(ids[pos] < num_targets);
    CM_CHECK(pos == 0 || ids[pos - 1] < ids[pos]);
    root.push_back(MakeIdPair(ids[pos], static_cast<uint32_t>(pos)));
  }

  uint64_t pairs = 0;
  // A single-id request runs a handful of one-pair hops per clause, so
  // per-call view and sort buffers would cost more than the hops themselves;
  // each serving thread keeps its own.
  static thread_local PropagationScratch scratch;
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
      nodes.push_back(
          PropagateIds(db, edge, nodes[cur], alive, {}, &scratch).pairs);
      pairs += nodes.back().size();
      cur = nodes.size() - 1;
    }

    const size_t cnode = static_cast<size_t>(lit.ConstraintNode());
    const Relation& rel = db.relation(clause.nodes()[cnode].relation);
    ApplyConstraint(rel, lit.constraint, alive, &nodes[cnode], &satisfied);

    bool pruned = false;
    for (size_t pos = 0; pos < alive.size(); ++pos) {
      if (alive[pos] && !satisfied[pos]) {
        alive[pos] = 0;
        --num_alive;
        pruned = true;
      }
    }
    if (!pruned) continue;
    for (IdPairs& node : nodes) DropDeadIds(&node, alive);
  }
  if (propagated_pairs != nullptr) *propagated_pairs += pairs;
  return alive;
}

}  // namespace crossmine
