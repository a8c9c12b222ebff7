#ifndef CROSSMINE_CORE_OPTIONS_H_
#define CROSSMINE_CORE_OPTIONS_H_

#include <cstdint>

#include "core/propagation.h"

namespace crossmine {

/// How a trained model combines its clauses into a prediction.
enum class PredictionMode {
  /// The paper's rule (§5.3): the most accurate satisfied clause wins;
  /// tuples satisfying no clause get the training majority class.
  kBestClause,
  /// Every satisfied clause votes with weight `accuracy - 1/C` (its edge
  /// over chance); the class with the largest total wins. More robust when
  /// many weak clauses overlap.
  kWeightedVote,
  /// Clauses fire in the order they were learned (a decision list);
  /// the first satisfied clause wins.
  kDecisionList,
};

/// Tuning knobs of the CrossMine classifier. Defaults are the values used
/// throughout the paper's experiments (§7): `MIN_FOIL_GAIN = 2.5`,
/// `MAX_CLAUSE_LENGTH = 6`, `NEG_POS_RATIO = 1`, `MAX_NUM_NEGATIVE = 600`.
struct CrossMineOptions {
  /// A literal is appended only if its foil gain reaches this (Algorithm 2).
  double min_foil_gain = 2.5;
  /// Maximum number of complex literals per clause (Algorithm 2).
  int max_clause_length = 6;

  /// Sequential covering stops once fewer than this fraction of the initial
  /// positive tuples remain uncovered (Algorithm 1 uses 10%).
  double min_pos_fraction_left = 0.1;
  /// Safety cap on the number of clauses per class.
  int max_clauses_per_class = 10000;

  /// Literal families to search (§3.2). The paper's synthetic experiments
  /// use categorical literals only; the real-database experiments use all
  /// three types.
  bool use_numerical_literals = true;
  bool use_aggregation_literals = true;
  /// Enables the look-one-ahead second propagation hop (§5.2, Fig. 7).
  bool look_one_ahead = true;

  /// Negative tuple sampling (§6). Off by default: the paper evaluates
  /// CrossMine with and without it.
  bool use_sampling = false;
  /// Negatives kept per positive when sampling (NEG_POS_RATIO).
  double neg_pos_ratio = 1.0;
  /// Hard cap on negatives when sampling (MAX_NUM_NEGATIVE).
  uint32_t max_num_negative = 600;

  /// After sequential covering, re-estimate every clause's support and
  /// Laplace accuracy on the *full* training set (§5.3: "CrossMine also
  /// needs to predict the class labels of the tuples in the training set to
  /// estimate the accuracy of each clause"). This demotes clauses that look
  /// pure on their shrinking build population but misfire on tuples covered
  /// earlier or belonging to other classes. When disabled, accuracy keeps
  /// the build-time estimate (the §6 safe estimate under sampling).
  bool reestimate_accuracy_on_training_set = true;

  /// Fan-out guards for tuple ID propagation (§4.3).
  PropagationLimits propagation_limits = {/*max_avg_fanout=*/0.0,
                                          /*max_total_ids=*/100000000ULL};

  /// Worker threads for the clause-search hot path. `0` means "use hardware
  /// concurrency"; `1` runs the plain sequential code path. Any value
  /// produces bit-identical models: candidate literals are scored in
  /// independent tasks and reduced in a fixed order (gain, then node index,
  /// then edge path, then attribute/value scan order).
  int num_threads = 0;

  /// Budget, in destination-tuple slots, for the per-build propagation
  /// cache that lets later literal-search rounds refresh earlier join
  /// sweeps with a cheap alive-filter instead of a full re-join. Each cached
  /// result is charged its destination relation's width (not its pair
  /// count, so what gets cached does not depend on the frontier); once the
  /// charges would exceed this many slots, further results are recomputed
  /// on demand instead of cached. Zero disables caching.
  uint64_t propagation_cache_slots = 4ULL << 20;

  /// Shard-parallel training (src/shard/): number of target-relation
  /// shards to train concurrently and merge deterministically. The core
  /// trainer itself ignores this — `shard::ShardedClassifier` and the CLI
  /// consume it; 1 is plain unsharded training.
  int num_shards = 1;

  /// How clauses combine at prediction time.
  PredictionMode prediction_mode = PredictionMode::kBestClause;

  /// Seed for negative sampling.
  uint64_t seed = 1;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_OPTIONS_H_
