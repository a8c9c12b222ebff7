#include "core/propagation.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"

namespace crossmine {

namespace {

/// The §4.3 verdict on sorted, duplicate-free `pairs`. The fan-out guard
/// averages over the non-empty destination tuples, one run each.
bool WithinLimits(const PropagationLimits& limits, const IdPairs& pairs) {
  const uint64_t total = pairs.size();
  if (limits.max_total_ids > 0 && total > limits.max_total_ids) return false;
  if (limits.max_avg_fanout <= 0 || total == 0) return true;
  uint64_t reached = 0;
  for (size_t lo = 0; lo < pairs.size(); lo = TupleRunEnd(pairs, lo)) {
    ++reached;
  }
  return static_cast<double>(total) / static_cast<double>(reached) <=
         limits.max_avg_fanout;
}

/// Sorts `pairs` (unless already sorted) and drops repeated pairs.
void Compact(IdPairs* pairs, IdPairs* tmp) {
  if (!std::is_sorted(pairs->begin(), pairs->end())) SortPairs(pairs, tmp);
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

/// Growth of a view since its last compaction that triggers the next one:
/// the cap and, on an FK–FK edge, the distinct pairs the view held then (at
/// least 2^16, which amortizes the sort), whichever is smaller. Only an
/// FK–FK join writes many more pairs than both its source and its result:
/// each of the n source tuples sharing a value writes its ids onto each of
/// that value's m destination tuples. An FK -> PK view holds at most its
/// source's pairs, and a PK -> FK view repeats none.
size_t CompactionStep(const JoinEdge& edge, size_t compacted, uint64_t cap) {
  size_t step = SIZE_MAX;
  if (edge.kind == JoinKind::kFkToFk) {
    step = std::max<size_t>(compacted, size_t{1} << 16);
  }
  return cap > 0 ? static_cast<size_t>(std::min<uint64_t>(step, cap)) : step;
}

}  // namespace

bool PropagateView(const Database& db, const JoinEdge& edge,
                   const IdPairs& src, const std::vector<uint8_t>& alive,
                   const PropagationLimits& limits, bool distinct,
                   PropagationScratch* scratch) {
  const Column<int64_t>& src_col =
      db.relation(edge.from_rel).IntColumn(edge.from_attr);
  // The handle pins the index for this whole propagation even if a memory
  // budget evicts the cached copy mid-scan.
  std::shared_ptr<const AttrIndex> handle =
      db.relation(edge.to_rel).GetAttrIndex(edge.to_attr);
  const AttrIndex& index = *handle;
  CM_CHECK(index.has_postings());  // join edges run between keys
  const uint64_t cap = limits.max_total_ids;
  IdPairs& view = scratch->view;
  view.clear();
  // The distinct volume only grows, so a compacted view over the cap
  // already decides the verdict.
  size_t compacted = 0;  // view size after the last compaction
  size_t step = CompactionStep(edge, 0, cap);
  for (size_t lo = 0; lo < src.size();) {
    const size_t hi = TupleRunEnd(src, lo);
    const int64_t value = src_col[PairTuple(src[lo])];
    const size_t v =
        value == kNullValue ? AttrIndex::npos : index.FindValue(value);
    if (v != AttrIndex::npos) {
      // A key value has one posting tuple, unless the database was built
      // without the loader's primary-key uniqueness check.
      const TupleId* posting = index.posting(v);
      const uint32_t count = index.posting_count(v);
      for (uint32_t i = 0; i < count; ++i) {
        for (size_t k = lo; k < hi; ++k) {
          const uint32_t id = PairId(src[k]);
          if (alive[id]) view.push_back(MakeIdPair(posting[i], id));
        }
        if (view.size() - compacted > step) {
          Compact(&view, &scratch->tmp);
          if (cap > 0 && view.size() > cap) return false;
          compacted = view.size();
          step = CompactionStep(edge, compacted, cap);
        }
      }
    }
    lo = hi;
  }

  // Without a fan-out guard, a view no larger than `cap` passes as is: its
  // distinct volume cannot exceed it.
  if (!distinct && limits.max_avg_fanout <= 0 &&
      (cap == 0 || view.size() <= cap)) {
    return true;
  }
  Compact(&view, &scratch->tmp);
  return WithinLimits(limits, view);
}

PropagationResult PropagateIds(const Database& db, const JoinEdge& edge,
                               const IdPairs& src,
                               const std::vector<uint8_t>& alive,
                               const PropagationLimits& limits,
                               PropagationScratch* scratch) {
  PropagationScratch local;
  PropagationScratch& sc = scratch != nullptr ? *scratch : local;
  PropagationResult result;
  result.ok = PropagateView(db, edge, src, alive, limits, /*distinct=*/true,
                            &sc);
  // An exact-size copy, so a result's capacity (and `peak_id_bytes`) does
  // not depend on which lane's buffers the hop ran in.
  if (result.ok) result.pairs.assign(sc.view.begin(), sc.view.end());
  return result;
}

bool RefreshPropagation(PropagationResult* result,
                        const std::vector<uint8_t>& alive,
                        const PropagationLimits& limits) {
  CM_CHECK(result->ok);
  DropDeadIds(&result->pairs, alive);
  // Re-apply the guards against the filtered volume; a fresh propagation
  // under the shrunken mask would see exactly these pairs.
  if (!WithinLimits(limits, result->pairs)) {
    IdPairs().swap(result->pairs);
    result->ok = false;
  }
  return result->ok;
}

}  // namespace crossmine
