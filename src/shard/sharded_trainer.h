#ifndef CROSSMINE_SHARD_SHARDED_TRAINER_H_
#define CROSSMINE_SHARD_SHARDED_TRAINER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/classifier.h"
#include "core/options.h"
#include "core/relational_classifier.h"
#include "relational/database.h"
#include "shard/partition.h"

namespace crossmine::shard {

struct ShardOptions {
  /// Shard count; 0 inherits `CrossMineOptions::num_shards`.
  int num_shards = 0;
  /// Training tuples the merge re-scores each candidate clause against.
  /// 0 (default) scores on the full training set — required for the
  /// shards=1 byte-identity guarantee. A positive value below the training
  /// size scores on a deterministic seed-derived sample and scales the
  /// support counts by the sampling ratio (cheaper on XL databases, at the
  /// cost of estimated accuracies).
  uint64_t merge_sample = 0;
};

/// Shard-parallel CrossMine trainer: partitions the target relation into K
/// shards (hash on PK value), runs the existing Find-Clauses loop per shard
/// concurrently on the ThreadPool — each worker sees only its shard's
/// positives/negatives, so §6 negative sampling bounds its working set —
/// then merges the per-shard clause sets deterministically: the union of
/// the per-shard clause sets in a fixed order (class ascending, then shard
/// index, then built order) is re-scored against the full training set on
/// the parent database, and a sequential-covering replay keeps a clause iff
/// it still covers an uncovered positive. The result is one ordinary
/// CrossMine model (saveable via SaveModel); with one shard it reproduces
/// the unsharded model byte-identically.
///
/// Determinism: the final model depends only on the database, `train_ids`
/// and the options — never on thread scheduling. Shards train independently
/// (CrossMine itself is byte-stable at any thread count) and the merge
/// visits shards by index, not completion order.
///
/// Thread budget: `CrossMineOptions::num_threads` lanes total (0 = hardware
/// concurrency) are split into min(K, total) concurrent shard workers, each
/// training with its own inner pool of the remaining lanes.
///
/// Per-shard `train.*` metrics are rolled up into the attached registry,
/// with shard train wall re-keyed to `train.shard.train_seconds` and the
/// subsystem's own counters under `train.shard.*`.
class ShardedClassifier : public RelationalClassifier {
 public:
  explicit ShardedClassifier(CrossMineOptions base = {},
                             ShardOptions shard_options = {})
      : base_(base), shard_options_(shard_options), merged_(base) {}

  Status Train(const Database& db,
               const std::vector<TupleId>& train_ids) override;

  /// Delegates to the merged model, forwarding the attached metrics
  /// registry. Unlike the base classifier, concurrent Predict calls must not
  /// race `set_metrics` (the registry is forwarded per call) — single-caller
  /// contexts (CLI, CrossValidate) only; serving hosts plain CrossMine
  /// models.
  std::vector<ClassId> Predict(const Database& db,
                               const std::vector<TupleId>& ids) const override;

  const char* name() const override { return "ShardedCrossMine"; }

  const CrossMineOptions& base_options() const { return base_; }
  const ShardOptions& shard_options() const { return shard_options_; }

  /// The merged model — an ordinary CrossMine model, serializable with
  /// SaveModel and byte-comparable to unsharded training.
  const CrossMineClassifier& merged_model() const { return merged_; }

  /// Counters from the last Train (also surfaced as `train.shard.*`
  /// metrics when a registry is attached).
  struct Stats {
    int num_shards = 0;       ///< K requested
    int active_shards = 0;    ///< shards with at least one training tuple
    uint64_t clauses_in = 0;  ///< union size entering the merge
    uint64_t clauses_kept = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  CrossMineOptions base_;
  ShardOptions shard_options_;
  CrossMineClassifier merged_;
  ClassId default_class_ = 0;
  int num_classes_ = 0;
  Stats stats_;
};

}  // namespace crossmine::shard

#endif  // CROSSMINE_SHARD_SHARDED_TRAINER_H_
