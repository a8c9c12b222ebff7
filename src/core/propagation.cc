#include "core/propagation.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"

namespace crossmine {

namespace {

/// The §4.3 verdict on a propagation of `total` ids over `reached`
/// non-empty destination tuples.
bool WithinLimits(const PropagationLimits& limits, uint64_t total,
                  uint64_t reached) {
  if (limits.max_total_ids > 0 && total > limits.max_total_ids) return false;
  return !(limits.max_avg_fanout > 0 && reached > 0 &&
           static_cast<double>(total) / static_cast<double>(reached) >
               limits.max_avg_fanout);
}

}  // namespace

PropagationResult PropagateIds(const Database& db, const JoinEdge& edge,
                               const IdPairs& src,
                               const std::vector<uint8_t>* alive,
                               const PropagationLimits& limits,
                               PropagationScratch* scratch) {
  const Column<int64_t>& src_col =
      db.relation(edge.from_rel).IntColumn(edge.from_attr);
  // The handle pins the index for this whole propagation even if a memory
  // budget evicts the cached copy mid-scan.
  std::shared_ptr<const AttrIndex> handle =
      db.relation(edge.to_rel).GetAttrIndex(edge.to_attr);
  const AttrIndex& index = *handle;
  CM_CHECK(index.has_postings());  // join edges run between keys
  PropagationScratch local;
  PropagationScratch& sc = scratch != nullptr ? *scratch : local;

  // Key every carried id by the destination value its tuple joins: one
  // index probe per source tuple run. Sorting merges source tuples sharing
  // a join value into one duplicate-free run per value.
  sc.keys.clear();
  for (size_t lo = 0; lo < src.size();) {
    const size_t hi = TupleRunEnd(src, lo);
    const int64_t value = src_col[PairTuple(src[lo])];
    const size_t v =
        value == kNullValue ? AttrIndex::npos : index.FindValue(value);
    if (v != AttrIndex::npos) {
      for (size_t k = lo; k < hi; ++k) {
        const uint32_t id = PairId(src[k]);
        if (alive == nullptr || (*alive)[id]) {
          sc.keys.push_back(MakeIdPair(static_cast<TupleId>(v), id));
        }
      }
    }
    lo = hi;
  }
  // A key source (PK -> FK edge) already walks its values in order.
  if (!std::is_sorted(sc.keys.begin(), sc.keys.end())) {
    SortPairs(&sc.keys, &sc.tmp);
    ++sc.key_sorts;
  }
  sc.keys.erase(std::unique(sc.keys.begin(), sc.keys.end()), sc.keys.end());

  // Every destination tuple of a value receives the value's whole run, so
  // the output volume is known before a single pair is written.
  sc.groups.clear();
  uint64_t total = 0;
  uint64_t reached = 0;
  for (size_t lo = 0; lo < sc.keys.size();) {
    const size_t hi = TupleRunEnd(sc.keys, lo);
    const uint32_t count = index.posting_count(PairTuple(sc.keys[lo]));
    sc.groups.push_back(static_cast<uint32_t>(lo));
    total += (hi - lo) * uint64_t{count};
    reached += count;
    lo = hi;
  }
  sc.groups.push_back(static_cast<uint32_t>(sc.keys.size()));

  PropagationResult result;
  result.total_ids = total;
  if (!WithinLimits(limits, total, reached)) {
    result.ok = false;
    return result;
  }

  // Write the pairs in destination-tuple order: order the reached tuples
  // (each has exactly one join value, hence one run), then copy each one's
  // run of ids, which already ascends.
  sc.dests.clear();
  for (uint32_t g = 0; g + 1 < sc.groups.size(); ++g) {
    const size_t v = PairTuple(sc.keys[sc.groups[g]]);
    const TupleId* posting = index.posting(v);
    const uint32_t count = index.posting_count(v);
    for (uint32_t i = 0; i < count; ++i) {
      sc.dests.push_back(MakeIdPair(posting[i], g));
    }
  }
  // Each value reaching one key tuple (FK -> PK edge) keeps value order.
  if (!std::is_sorted(sc.dests.begin(), sc.dests.end())) {
    SortPairs(&sc.dests, &sc.tmp);
    ++sc.dest_sorts;
  }
  result.pairs.reserve(total);
  for (IdPair d : sc.dests) {
    const TupleId u = PairTuple(d);
    const uint32_t g = PairId(d);
    for (uint32_t k = sc.groups[g]; k < sc.groups[g + 1]; ++k) {
      result.pairs.push_back(MakeIdPair(u, PairId(sc.keys[k])));
    }
  }
  return result;
}

bool PropagateView(const Database& db, const JoinEdge& edge,
                   const IdPairs& src, const std::vector<uint8_t>& alive,
                   const PropagationLimits& limits, bool distinct,
                   PropagationScratch* scratch) {
  const Column<int64_t>& src_col =
      db.relation(edge.from_rel).IntColumn(edge.from_attr);
  std::shared_ptr<const AttrIndex> handle =
      db.relation(edge.to_rel).GetAttrIndex(edge.to_attr);
  const AttrIndex& index = *handle;
  CM_CHECK(index.has_postings());
  IdPairs& view = scratch->view;
  view.clear();
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
      }
    }
    lo = hi;
  }

  if (!distinct && limits.max_avg_fanout <= 0 &&
      (limits.max_total_ids == 0 || view.size() <= limits.max_total_ids)) {
    return true;
  }
  SortPairs(&view, &scratch->tmp);
  view.erase(std::unique(view.begin(), view.end()), view.end());
  uint64_t reached = 0;
  for (size_t lo = 0; lo < view.size(); lo = TupleRunEnd(view, lo)) {
    ++reached;
  }
  return WithinLimits(limits, view.size(), reached);
}

bool RefreshPropagation(PropagationResult* result,
                        const std::vector<uint8_t>& alive,
                        const PropagationLimits& limits) {
  CM_CHECK(result->ok);
  DropDeadIds(&result->pairs, alive);
  const IdPairs& pairs = result->pairs;
  uint64_t reached = 0;
  if (limits.max_avg_fanout > 0) {
    for (size_t lo = 0; lo < pairs.size(); lo = TupleRunEnd(pairs, lo)) {
      ++reached;
    }
  }
  result->total_ids = pairs.size();
  // Re-apply the guards against the filtered volume; a fresh propagation
  // under the shrunken mask would see exactly these totals.
  if (!WithinLimits(limits, result->total_ids, reached)) {
    IdPairs().swap(result->pairs);
    result->ok = false;
  }
  return result->ok;
}

}  // namespace crossmine
