#ifndef CROSSMINE_CORE_CLAUSE_BUILDER_H_
#define CROSSMINE_CORE_CLAUSE_BUILDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/id_pairs.h"
#include "core/literal.h"
#include "core/literal_search.h"
#include "core/options.h"
#include "core/propagation.h"
#include "relational/database.h"

namespace crossmine {

/// Builds one clause by repeated best-literal search — Algorithm 2
/// (Find-A-Clause) with Algorithm 3 (Find-Best-Literal) inside.
///
/// The builder maintains, per clause node, the (tuple, target id) pairs
/// propagated along the clause's join tree, restricted to the targets still
/// satisfying the partial clause ("update IDs on every active relation").
/// Node 0 holds `(t, t)` for every alive target. Each search step
/// considers:
///   1. constraints on every active node (empty prop-path);
///   2. one propagation hop from every active node along every join edge;
///   3. with look-one-ahead, a second hop along foreign-key→primary-key
///      edges (`k' ≠ k`), which lets clauses cross pure relationship
///      relations (Fig. 7).
///
/// Every (active-node, edge-path) candidate is an independent task: a
/// hop-0 constraint scan, a one-hop propagation + scan, or a look-ahead
/// second hop + scan. When a `ThreadPool` is supplied the tasks run on its
/// workers, each with its own `LiteralSearcher` scratch state; results land
/// in task-indexed slots and are reduced sequentially in the exact order
/// the sequential loops visit candidates, so any thread count produces the
/// identical clause (ties keep breaking by node index, then edge path,
/// then attribute/value scan order).
///
/// Propagation work is reused across search rounds: each successful
/// per-(node, edge-path) `PropagationResult` is cached for the duration of
/// one `Build`. Because the alive mask only shrinks between literals, later
/// rounds refresh a cached result by erasing its dead pairs in place
/// (`RefreshPropagation`) instead of re-running the join, and `Append`
/// reuses the propagation the search just scored instead of recomputing it.
/// Every step — propagation, refresh, literal search, `ApplyConstraint` —
/// walks pairs, so a round costs what the alive targets reach, not the
/// width of the relations they reach into.
///
/// One instance builds one clause; construct a new instance per clause.
class ClauseBuilder {
 public:
  /// `positive` flags targets of the class being learned; `alive` is the
  /// initial example mask (uncovered positives plus — possibly sampled —
  /// negatives). Both are indexed by target TupleId. `pool` (optional,
  /// borrowed) parallelizes the literal search; null or a 1-lane pool runs
  /// the sequential path. `metrics` (optional, borrowed) records `train.*`
  /// search / propagation-cache metrics; counting never alters the search.
  ClauseBuilder(const Database* db, const std::vector<uint8_t>* positive,
                const CrossMineOptions* opts, ThreadPool* pool = nullptr,
                MetricsRegistry* metrics = nullptr);

  /// Runs Find-A-Clause starting from `alive`. The returned clause is empty
  /// if no literal reaches `min_foil_gain`.
  Clause Build(std::vector<uint8_t> alive);

  /// After `Build`: mask of initially-alive targets satisfying the clause.
  const std::vector<uint8_t>& final_alive() const { return alive_; }
  /// After `Build`: alive positive / negative counts (P(c), N(c)).
  uint32_t final_pos() const { return pos_; }
  uint32_t final_neg() const { return neg_; }

 private:
  /// One candidate from Find-Best-Literal: a scored constraint plus where
  /// its prop-path starts and which edges it takes.
  struct BestChoice {
    CandidateLiteral cand;
    int32_t source_node = -1;
    std::vector<int32_t> edge_path;
    bool valid() const { return source_node >= 0 && cand.valid(); }
  };

  /// One literal-search task: a (node, edge-path) candidate of Algorithm 3.
  struct SearchTask {
    int32_t node = -1;
    int32_t edge = -1;    ///< hop-1 edge id; -1 for the hop-0 constraint scan
    int32_t edge2 = -1;   ///< look-ahead edge id; -1 otherwise
    int32_t parent = -1;  ///< index of the hop-1 task feeding a hop-2 task
  };

  /// A cached propagation, refreshed lazily once per search round.
  struct CachedPropagation {
    std::shared_ptr<PropagationResult> result;
    uint64_t epoch = 0;  ///< search round the result was last filtered for
    uint64_t slots = 0;  ///< destination relation width, for the budget
  };

  BestChoice FindBestLiteral();
  void Consider(BestChoice* best, const CandidateLiteral& cand,
                int32_t source_node, std::vector<int32_t> edge_path) const;
  void Append(const BestChoice& choice);
  void RecountAlive();

  /// Returns the propagation along `edge` for the path keyed by
  /// (node, e, e2), serving it from the per-build cache when possible:
  /// a current-round entry is returned as-is, a stale entry is refreshed
  /// by erasing its dead pairs, and a miss recomputes `PropagateIds` from
  /// `src` (caching the result while the slot budget allows). `scratch`
  /// reuses that lane's propagation grouping buffers. Safe to call from
  /// pool tasks: each key is requested by exactly one task per round, so
  /// only the map itself needs the lock.
  std::shared_ptr<const PropagationResult> GetPropagation(
      int32_t node, int32_t e, int32_t e2, const IdPairs& src,
      const JoinEdge& edge, PropagationScratch* scratch);

  /// Bytes currently held by pair vectors (clause nodes + propagation
  /// cache); sampled into `train.propagation.peak_id_bytes` at the
  /// quiescent points of the build loop (no tasks in flight).
  uint64_t CurrentIdBytes();

  /// Ensures one LiteralSearcher per pool lane and points them all at the
  /// current alive mask / class counts.
  void PrepareWorkers();

  /// Pre-builds the lazily cached relation indexes the tasks will read, so
  /// pool workers never race the on-demand construction.
  void WarmIndexes() const;

  int num_lanes() const { return pool_ == nullptr ? 1 : pool_->num_threads(); }

  const Database* db_;
  const std::vector<uint8_t>* positive_;
  const CrossMineOptions* opts_;
  ThreadPool* pool_;
  MetricsRegistry* metrics_;

  /// Cached metric handles (null when `metrics_` is null) so pool tasks pay
  /// one relaxed atomic add per event, never a key lookup.
  Counter* prop_cache_hits_ = nullptr;
  Counter* prop_cache_refreshes_ = nullptr;
  Counter* prop_cache_misses_ = nullptr;
  Counter* prop_cache_evictions_ = nullptr;
  Counter* prop_rejected_ = nullptr;
  Counter* prop_pairs_ = nullptr;
  Counter* search_rounds_ = nullptr;
  Counter* search_tasks_ = nullptr;
  Counter* pool_tasks_ = nullptr;
  Counter* literals_accepted_ = nullptr;
  Counter* peak_id_bytes_ = nullptr;
  Timer* prop_time_ = nullptr;
  Timer* lookahead_time_ = nullptr;

  Clause clause_;
  /// Propagated (tuple, target id) pairs per clause node, alive-filtered.
  std::vector<IdPairs> node_pairs_;
  std::vector<uint8_t> alive_;
  uint32_t pos_ = 0, neg_ = 0;

  /// One scratch searcher per pool lane (lane 0 is the calling thread).
  std::vector<LiteralSearcher> searchers_;
  /// One propagation scratch per pool lane, reused across every
  /// `PropagateIds` that lane runs.
  std::vector<PropagationScratch> prop_scratch_;
  std::vector<uint8_t> satisfied_;

  /// Per-build propagation cache, keyed by (node, edge, lookahead edge).
  std::map<std::array<int32_t, 3>, CachedPropagation> prop_cache_;
  uint64_t cached_slot_count_ = 0;
  uint64_t search_epoch_ = 0;
  std::mutex cache_mu_;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_CLAUSE_BUILDER_H_
