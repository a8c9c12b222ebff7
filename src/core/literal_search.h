#ifndef CROSSMINE_CORE_LITERAL_SEARCH_H_
#define CROSSMINE_CORE_LITERAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "core/idset_store.h"
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

/// Finds the best constraint within one relation given propagated tuple IDs
/// (§5.1). Scans each attribute once:
///  * categorical attributes: one distinct-target count per category value;
///  * numerical attributes: ascending sweep for `<= v` literals, descending
///    sweep for `>= v` literals, over the cached sorted index;
///  * aggregation literals: per-target count/sum/avg statistics, then the
///    same two-direction sweep over the aggregated values.
///
/// Counting is *distinct-target* counting (the §4.3 pitfall): a target tuple
/// joinable with many satisfying tuples is counted once. Counts come from the
/// relation's cached `AttrIndex` posting lists and the `bitmap_ops` kernel,
/// with a per-value choice by cardinality:
///
///  * dense values (any bitmap-kind idset, or summed cardinality at or above
///    the accumulator's footprint) build the covered-target set as a bitmap
///    union; pos/neg counts are `popcount(union ∧ alive_pos)` /
///    `popcount(union ∧ alive_neg)`;
///  * sparse values walk their few non-empty idsets with epoch-stamped
///    marker arrays, no per-candidate allocation.
///
/// Both branches count the same distinct targets, so the choice never
/// changes the chosen literal. The golden models and the brute-force oracles
/// in `literal_search_test.cc` / `property_test.cc` referee the counts.
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
  /// then accumulates scan wall time into `train.phase.literal_search_seconds`,
  /// one `train.literals_scored` tick per candidate offered to the gain
  /// comparison, and one `train.index.hits` tick per counting served by
  /// the word-parallel kernel (per categorical value, per numerical
  /// attribute sweep pair). Counting never alters which literal wins.
  void set_metrics(MetricsRegistry* metrics);

  /// Best constraint on `rel` given `idsets` (parallel to rel's tuples).
  /// `identity_idsets` asserts the caller-known invariant
  /// `idset(t) = {t} iff alive[t]` (the clause's node-0 store): counting
  /// then reads straight off the AttrIndex postings without touching the
  /// store. Purely an optimization hint — counts are the same
  /// with it off.
  CandidateLiteral FindBest(RelId rel, const IdSetStore& idsets,
                            const CrossMineOptions& opts,
                            bool identity_idsets = false);

 private:
  void SearchCategorical(const Relation& rel, AttrId attr,
                         const IdSetStore& idsets, CandidateLiteral* best);
  void SearchNumerical(const Relation& rel, AttrId attr,
                       const IdSetStore& idsets, CandidateLiteral* best);
  void SearchAggregations(const Relation& rel, const IdSetStore& idsets,
                          CandidateLiteral* best);

  /// Sweeps entries (sorted ascending by value) in both directions, offering
  /// `<=`/`>=` candidates at distinct-value boundaries.
  void SweepSortedTargets(const std::vector<std::pair<double, TupleId>>& entries,
                          AggOp agg, AttrId attr, CandidateLiteral* best);

  /// The two-direction threshold sweep shared by numerical and aggregation
  /// literals, over `n` positions sorted ascending by `value(i)`:
  /// `step(i, &pos, &neg)` adds position i's newly covered targets, and a
  /// `<= value(i)` (ascending) or `>= value(i)` (descending) candidate is
  /// offered at each distinct-value boundary. Each direction starts from
  /// empty coverage and a cleared union accumulator.
  template <typename Value, typename Step>
  void SweepThresholds(size_t n, AttrId attr, AggOp agg, Value value,
                       Step step, CandidateLiteral* best);

  void Offer(CandidateLiteral* best, const Constraint& c, uint32_t pos_cov,
             uint32_t neg_cov) const;

  uint32_t NewEpoch();

  const Database* db_;
  const std::vector<uint8_t>* positive_;
  const std::vector<uint8_t>* alive_ = nullptr;
  uint32_t pos_ = 0, neg_ = 0;

  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> agg_count_;
  std::vector<double> agg_sum_;

  /// Kernel state, rebuilt by `SetContext`: the alive targets of each class
  /// as kernel operands, plus the union accumulator. `identity_` is the
  /// per-`FindBest` node-0 hint.
  std::vector<uint64_t> alive_pos_words_;
  std::vector<uint64_t> alive_neg_words_;
  std::vector<uint64_t> union_words_;
  std::vector<TupleId> nonempty_;
  bool identity_ = false;

  /// Cached metric handles (null when detached). `offered_` / `hits_` batch
  /// the per-candidate counts locally during one `FindBest` so the hot
  /// `Offer` path never touches an atomic; they are flushed once per call.
  Counter* literals_scored_ = nullptr;
  Counter* index_hits_ = nullptr;
  Timer* search_time_ = nullptr;
  mutable uint64_t offered_ = 0;
  mutable uint64_t hits_ = 0;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_LITERAL_SEARCH_H_
