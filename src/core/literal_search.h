#ifndef CROSSMINE_CORE_LITERAL_SEARCH_H_
#define CROSSMINE_CORE_LITERAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "core/id_pairs.h"
#include "core/literal.h"
#include "core/options.h"
#include "relational/database.h"

namespace crossmine {

/// A scored constraint candidate produced by the literal search.
struct CandidateLiteral {
  Constraint constraint;
  double gain = -1.0;
  /// P(c+l) / N(c+l): distinct alive positive / negative targets covered.
  uint32_t pos_cov = 0;
  uint32_t neg_cov = 0;

  bool valid() const { return gain >= 0.0; }
};

/// Finds the best constraint within one relation given its propagated
/// (tuple, id) pairs (§5.1). Scans each attribute once:
///  * categorical attributes: one distinct-target count per category value;
///  * numerical attributes: ascending sweep for `<= v` literals, descending
///    sweep for `>= v` literals;
///  * aggregation literals: per-target count/sum/avg statistics, then the
///    same two-direction sweep over the aggregated values.
///
/// Counting is *distinct-target* counting (the §4.3 pitfall): a target tuple
/// joinable with many satisfying tuples is counted once, through
/// epoch-stamped marks over the target ids. Every scan walks only the
/// pairs, so its cost tracks the live frontier, not relation width:
///  * categorical: a counting sort over the pairs. One pass reads each
///    pair's value slot (`value - lo` in a direct-addressed `AttrIndex`,
///    `FindValue` in a sorted one; NULL cells and dead targets go to a
///    trailing bucket), a second scatters the target ids into one flat
///    segment per slot with the negative class tagged in the top bit, and
///    a third counts each segment's distinct ids in one branch-free loop
///    under a fresh mark epoch;
///  * numerical: the tuple runs sorted by (value, tuple) — the relation's
///    sorted index restricted to the frontier — are swept. Thresholds
///    between frontier values cover nothing new, so they cannot win and
///    are not offered;
///  * aggregation: per-target count / sum over the pairs in (tuple, id)
///    order, the summation order `ApplyConstraint` uses. `count(*)` values
///    are counting-sorted by count; sum / avg values are sorted.
///
/// The tuple runs of the pairs are listed only when a numerical or sum/avg
/// scan will walk them.
///
/// The clause's node 0 (the target relation itself, `idset(t) = {t}` for
/// alive t) is searched the same way, over its `(t, t)` pairs.
///
/// The golden models and the brute-force oracles in `literal_search_test.cc`
/// / `property_test.cc` referee the counts.
///
/// The searcher owns scratch buffers sized to the number of target tuples;
/// reuse one instance across calls.
class LiteralSearcher {
 public:
  /// `positive` flags each target tuple of the positive class; it must
  /// outlive the searcher.
  LiteralSearcher(const Database* db, const std::vector<uint8_t>* positive);

  /// Sets the clause context: `alive` masks targets satisfying the current
  /// clause (and surviving sampling); `pos`/`neg` are P(c), N(c).
  void SetContext(const std::vector<uint8_t>* alive, uint32_t pos,
                  uint32_t neg);

  /// Attaches a metrics registry (borrowed; null detaches). `FindBest`
  /// then accumulates scan wall time into `train.phase.literal_search_seconds`
  /// and one `train.literals_scored` tick per candidate offered to the gain
  /// comparison. Counting never alters which literal wins.
  void set_metrics(MetricsRegistry* metrics);

  /// Best constraint on `rel` given its (tuple, id) `pairs`, each naming a
  /// tuple of `rel`. Categorical and numerical scans count distinct alive
  /// targets, so they take pairs in any order and with repeats, such as a
  /// look-ahead `PropagateView`; a tuple's pairs may be split into several
  /// runs. Aggregation scans count pairs and sum in pair order, so with
  /// `use_aggregation_literals` the pairs must be sorted and duplicate-free,
  /// as a `distinct` view or `PropagateIds`' result is.
  CandidateLiteral FindBest(RelId rel, const IdPairs& pairs,
                            const CrossMineOptions& opts);

 private:
  void SearchCategorical(const Relation& rel, AttrId attr,
                         const IdPairs& pairs, CandidateLiteral* best);
  void SearchNumerical(const Relation& rel, AttrId attr, const IdPairs& pairs,
                       CandidateLiteral* best);
  void SearchAggregations(const Relation& rel, const IdPairs& pairs,
                          CandidateLiteral* best);

  /// Counts the not-yet-marked alive targets of the pairs in [lo, hi) into
  /// `pos_cov` / `neg_cov`, marking them with the current epoch.
  void CountNew(const IdPairs& pairs, size_t lo, size_t hi, uint32_t* pos_cov,
                uint32_t* neg_cov);

  /// Sweeps entries (sorted ascending by value) in both directions, offering
  /// `<=`/`>=` candidates at distinct-value boundaries.
  void SweepSortedTargets(const std::vector<std::pair<double, TupleId>>& entries,
                          AggOp agg, AttrId attr, CandidateLiteral* best);

  /// The two-direction threshold sweep shared by numerical and aggregation
  /// literals, over `n` positions sorted ascending by `value(i)`:
  /// `step(i, &pos, &neg)` adds position i's newly covered targets, and a
  /// `<= value(i)` (ascending) or `>= value(i)` (descending) candidate is
  /// offered at each distinct-value boundary. Each direction starts from
  /// empty coverage and a fresh mark epoch.
  template <typename Value, typename Step>
  void SweepThresholds(size_t n, AttrId attr, AggOp agg, Value value,
                       Step step, CandidateLiteral* best);

  void Offer(CandidateLiteral* best, const Constraint& c, uint32_t pos_cov,
             uint32_t neg_cov) const;

  /// Starts a fresh mark epoch: no target counts as marked.
  void NewEpoch();

  const Database* db_;
  const std::vector<uint8_t>* positive_;
  const std::vector<uint8_t>* alive_ = nullptr;
  uint32_t pos_ = 0, neg_ = 0;

  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> agg_count_;
  std::vector<double> agg_sum_;

  /// Per-`FindBest` frontier scratch: `runs_` holds the start of every
  /// tuple run of the pairs (plus an end sentinel), when a scan needs it;
  /// `pair_slot_`, `bucket_` and `by_value_` are the categorical counting
  /// sort (`bucket_` also the count(*) one); `sorted_runs_` the numerical
  /// (value, run) order; `agg_touched_` and `agg_entries_` the aggregated
  /// targets and their (value, target) entries.
  std::vector<uint32_t> runs_;
  std::vector<uint32_t> pair_slot_;
  std::vector<uint32_t> bucket_;
  std::vector<uint32_t> by_value_;
  std::vector<std::pair<double, uint32_t>> sorted_runs_;
  std::vector<TupleId> agg_touched_;
  std::vector<std::pair<double, TupleId>> agg_entries_;

  /// Cached metric handles (null when detached). `offered_` batches the
  /// per-candidate count locally during one `FindBest` so the hot `Offer`
  /// path never touches an atomic; it is flushed once per call.
  Counter* literals_scored_ = nullptr;
  Timer* search_time_ = nullptr;
  mutable uint64_t offered_ = 0;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_LITERAL_SEARCH_H_
