#include "shard/partition.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace crossmine::shard {

namespace {

/// Copies the listed rows of `src` into `dst` (same schema), preserving all
/// cell values — primary keys included, so value-based joins keep resolving.
void CopyRows(const Relation& src, Relation* dst,
              const std::vector<TupleId>& rows) {
  const RelationSchema& schema = src.schema();
  for (TupleId row : rows) {
    TupleId t = dst->AddTuple();
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.IsIntAttr(a)) {
        dst->SetInt(t, a, src.IntColumn(a)[row]);
      } else {
        dst->SetDouble(t, a, src.DoubleColumn(a)[row]);
      }
    }
  }
}

/// Copies the categorical dictionaries so shard-side clause rendering shows
/// the same labels as the parent.
void CopyDictionaries(const Relation& src, Relation* dst) {
  const RelationSchema& schema = src.schema();
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (!schema.IsIntAttr(a)) continue;
    const std::vector<std::string>& dict = src.Dictionary(a);
    if (!dict.empty()) dst->SetDictionary(a, dict);
  }
}

/// Points every column of `dst` at `src`'s storage (owned vector or mmap
/// segment alike) — the zero-copy attachment of every non-target relation.
void BorrowRelation(const Relation& src, Relation* dst) {
  const RelationSchema& schema = src.schema();
  dst->BindBorrowedTuples(src.num_tuples());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.IsIntAttr(a)) {
      dst->BorrowIntColumn(a, src.IntColumn(a).data());
    } else {
      dst->BorrowDoubleColumn(a, src.DoubleColumn(a).data());
    }
  }
}

}  // namespace

int32_t ShardOfKey(int64_t pk_value, int num_shards) {
  CM_CHECK(num_shards > 0);
  uint64_t z = static_cast<uint64_t>(pk_value);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<int32_t>(z % static_cast<uint64_t>(num_shards));
}

StatusOr<std::vector<Shard>> PartitionDatabase(
    const Database& parent, const std::vector<TupleId>& train_ids,
    int num_shards) {
  if (!parent.finalized()) {
    return Status::FailedPrecondition("database not finalized");
  }
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const Relation& target = parent.target_relation();
  AttrId pk = target.schema().primary_key();

  // Ascending, deduplicated parent target ids — the order shard tuples keep.
  std::vector<TupleId> sorted_ids = train_ids;
  std::sort(sorted_ids.begin(), sorted_ids.end());
  sorted_ids.erase(std::unique(sorted_ids.begin(), sorted_ids.end()),
                   sorted_ids.end());
  if (!sorted_ids.empty() && sorted_ids.back() >= target.num_tuples()) {
    return Status::OutOfRange("train id beyond target relation");
  }

  std::vector<std::vector<TupleId>> members(
      static_cast<size_t>(num_shards));
  for (TupleId t : sorted_ids) {
    int32_t s = ShardOfKey(target.IntColumn(pk)[t], num_shards);
    members[static_cast<size_t>(s)].push_back(t);
  }

  std::vector<Shard> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Shard shard;
    shard.parent_ids = std::move(members[static_cast<size_t>(s)]);

    for (RelId r = 0; r < parent.num_relations(); ++r) {
      const Relation& src = parent.relation(r);
      RelId added = shard.db.AddRelation(src.schema());
      CM_CHECK(added == r);
      Relation& dst = shard.db.mutable_relation(r);
      if (r == parent.target()) {
        CopyRows(src, &dst, shard.parent_ids);
      } else {
        BorrowRelation(src, &dst);
      }
      CopyDictionaries(src, &dst);
    }

    shard.db.SetTarget(parent.target());
    std::vector<ClassId> labels;
    labels.reserve(shard.parent_ids.size());
    for (TupleId t : shard.parent_ids) labels.push_back(parent.labels()[t]);
    shard.db.SetLabels(std::move(labels), parent.num_classes());
    Status st = shard.db.Finalize();
    if (!st.ok()) {
      return Status::Internal(
          StrFormat("shard %d failed to finalize: %s", s,
                    st.ToString().c_str()));
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace crossmine::shard
