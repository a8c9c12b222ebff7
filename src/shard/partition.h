#ifndef CROSSMINE_SHARD_PARTITION_H_
#define CROSSMINE_SHARD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "relational/database.h"

namespace crossmine::shard {

/// One shard: a carved sub-database plus the mapping back to the parent.
///
/// The sub-database has the parent's exact relation order, schemas and
/// (after `Finalize`) join graph, so `SchemaFingerprint(shard.db)` equals
/// the parent's and clauses learned on a shard reference relation /
/// attribute / edge ids that resolve identically against the parent.
/// Non-target relations are shared read-only: every column is a zero-copy
/// borrowed span aliasing the parent's storage (an owned vector or the
/// mmap'd `.cmdb` segment — `Column<T>::Borrow` either way), so each shard
/// pays only its own lazy index builds over the full relations. The
/// sub-database is valid only while the parent Database outlives it and is
/// not mutated.
struct Shard {
  Database db;
  /// Parent target ids of this shard's target tuples, ascending; shard
  /// target tuple `i` is parent target tuple `parent_ids[i]`.
  std::vector<TupleId> parent_ids;
};

/// Shard assignment of one target tuple: a SplitMix64-style mix of the
/// tuple's primary-key *value* reduced mod `num_shards`. Hashing the value
/// (not the position) keeps the assignment stable under row reordering and
/// spreads sequentially allocated keys evenly.
int32_t ShardOfKey(int64_t pk_value, int num_shards);

/// Hash-splits the target tuples listed in `train_ids` into
/// `num_shards` (>= 1) shards on their primary-key value and carves one
/// sub-database per shard: the target relation holds exactly that shard's
/// train tuples (rows copied, PK values preserved so FK joins into the
/// target keep resolving), labels restricted to match, and non-target
/// relations borrowed from the parent. Deterministic: depends only on
/// the parent's contents, `train_ids` and `num_shards`. Shards may be empty
/// (their `db` still finalizes with zero target tuples — callers skip
/// them for training).
StatusOr<std::vector<Shard>> PartitionDatabase(const Database& parent,
                                               const std::vector<TupleId>& train_ids,
                                               int num_shards);

}  // namespace crossmine::shard

#endif  // CROSSMINE_SHARD_PARTITION_H_
