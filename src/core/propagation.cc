#include "core/propagation.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"

namespace crossmine {

PropagationResult PropagateIds(const Database& db, const JoinEdge& edge,
                               const IdSetStore& src_idsets,
                               const std::vector<uint8_t>* alive,
                               const PropagationLimits& limits,
                               PropagationScratch* scratch) {
  const Relation& src = db.relation(edge.from_rel);
  const Relation& dst = db.relation(edge.to_rel);
  CM_CHECK(src_idsets.num_sets() == src.num_tuples());

  PropagationResult result;
  PropagationScratch local;
  PropagationScratch& sc = scratch != nullptr ? *scratch : local;

  // Group the source side by join value with a flat sort of (value, tuple)
  // pairs: only tuples with a non-empty idset enter (under sampling that is
  // a small fraction — the store's non-empty bitmap walks straight to them
  // instead of probing every descriptor), and sorting POD pairs is
  // allocation-free after warm-up — unlike a per-call hash map, whose node
  // allocation per distinct value used to dominate this function's profile.
  // Lexicographic order keeps each bucket's tuples ascending; ascending-
  // value bucket order is deterministic, and neither the produced idset
  // contents nor the limit verdicts below depend on bucket order, so models
  // stay byte-identical.
  const Column<int64_t>& src_col = src.IntColumn(edge.from_attr);
  sc.groups.clear();
  src_idsets.ForEachNonEmptySet([&sc, &src_col](TupleId t) {
    int64_t v = src_col[t];
    if (v == kNullValue) return;
    sc.groups.emplace_back(v, t);
  });
  std::sort(sc.groups.begin(), sc.groups.end());

  // Pack the alive mask once; every word-parallel merge ANDs against it.
  const uint64_t* alive_words = nullptr;
  if (alive != nullptr) {
    sc.alive_words.resize(bitmap_ops::WordsForBits(alive->size()));
    bitmap_ops::PackBytes(alive->data(), alive->size(),
                          sc.alive_words.data());
    alive_words = sc.alive_words.data();
  }

  // Merge each bucket and hand the merged span to every matching
  // destination tuple: the first one owns the span, the rest alias it.
  // The handle pins the unified index for this whole propagation even if a
  // memory budget evicts the cached copy mid-scan.
  std::shared_ptr<const AttrIndex> dst_handle =
      dst.GetAttrIndex(edge.to_attr);
  const AttrIndex& dst_index = *dst_handle;
  result.idsets.Reset(dst.num_tuples(), src_idsets.universe());
  uint64_t total = 0;
  uint64_t nonempty = 0;
  for (size_t lo = 0; lo < sc.groups.size();) {
    const int64_t value = sc.groups[lo].first;
    size_t hi = lo;
    sc.bucket.clear();
    while (hi < sc.groups.size() && sc.groups[hi].first == value) {
      sc.bucket.push_back(sc.groups[hi].second);
      ++hi;
    }
    lo = hi;
    size_t dv = dst_index.FindValue(value);
    if (dv == AttrIndex::npos) continue;
    const TupleId* dst_tuples = dst_index.posting(dv);
    uint32_t dst_count = dst_index.posting_count(dv);
    TupleId first = dst_tuples[0];
    uint64_t size = result.idsets.AssignUnionOfSets(
        first, src_idsets, sc.bucket.data(),
        static_cast<uint32_t>(sc.bucket.size()), alive, alive_words,
        &sc.union_scratch);
    if (size == 0) continue;
    for (uint32_t di = 0; di < dst_count; ++di) {
      TupleId u = dst_tuples[di];
      if (u != first) result.idsets.Alias(u, first);
      total += size;
      ++nonempty;
      if (limits.max_total_ids > 0 && total > limits.max_total_ids) {
        result.idsets.Free();
        result.ok = false;
        return result;
      }
    }
  }
  result.total_ids = total;

  if (limits.max_avg_fanout > 0 && nonempty > 0 &&
      static_cast<double>(total) / static_cast<double>(nonempty) >
          limits.max_avg_fanout) {
    result.idsets.Free();
    result.ok = false;
  }
  return result;
}

bool RefreshPropagation(PropagationResult* result,
                        const std::vector<uint8_t>& alive,
                        const PropagationLimits& limits) {
  CM_CHECK(result->ok);
  // One in-place compaction pass: dead ids drop out and every surviving
  // span slides down over the reclaimed space, so the arena shrinks to the
  // live footprint (never grows).
  result->idsets.FilterAndCompact(alive);
  uint64_t total = 0;
  uint64_t nonempty = 0;
  const IdSetStore& sets = result->idsets;
  sets.ForEachNonEmptySet([&sets, &total, &nonempty](TupleId s) {
    total += sets.Cardinality(s);
    ++nonempty;
  });
  result->total_ids = total;
  // Re-apply the guards against the filtered volume; a fresh propagation
  // under the shrunken mask would see exactly these totals.
  if ((limits.max_total_ids > 0 && total > limits.max_total_ids) ||
      (limits.max_avg_fanout > 0 && nonempty > 0 &&
       static_cast<double>(total) / static_cast<double>(nonempty) >
           limits.max_avg_fanout)) {
    result->idsets.Free();
    result->ok = false;
  }
  return result->ok;
}

}  // namespace crossmine
