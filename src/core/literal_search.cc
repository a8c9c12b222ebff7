#include "core/literal_search.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/foil_gain.h"

namespace crossmine {

LiteralSearcher::LiteralSearcher(const Database* db,
                                 const std::vector<uint8_t>* positive)
    : db_(db), positive_(positive) {
  size_t n = db->target_relation().num_tuples();
  mark_.assign(n, 0);
  agg_count_.assign(n, 0);
  agg_sum_.assign(n, 0.0);
}

void LiteralSearcher::SetContext(const std::vector<uint8_t>* alive,
                                 uint32_t pos, uint32_t neg) {
  alive_ = alive;
  pos_ = pos;
  neg_ = neg;
  // The scratch arrays were sized at construction; if the target relation
  // has grown since (tuples may be appended after Finalize()), a stale
  // searcher would silently index out of bounds. Resize and restart the
  // epoch stamps instead.
  if (alive_->size() > mark_.size()) {
    mark_.assign(alive_->size(), 0);
    epoch_ = 0;
    agg_count_.assign(alive_->size(), 0);
    agg_sum_.assign(alive_->size(), 0.0);
  }
}

void LiteralSearcher::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    literals_scored_ = nullptr;
    search_time_ = nullptr;
    return;
  }
  literals_scored_ = metrics->counter("train.literals_scored");
  search_time_ = metrics->timer("train.phase.literal_search_seconds");
}

void LiteralSearcher::NewEpoch() {
  if (++epoch_ == 0) {
    // Wrapped around: clear stamps and restart.
    std::fill(mark_.begin(), mark_.end(), 0u);
    epoch_ = 1;
  }
}

void LiteralSearcher::Offer(CandidateLiteral* best, const Constraint& c,
                            uint32_t pos_cov, uint32_t neg_cov) const {
  ++offered_;
  if (pos_cov == 0) return;
  // A literal satisfied by every alive target discriminates nothing.
  if (pos_cov == pos_ && neg_cov == neg_) return;
  double gain = FoilGain(pos_, neg_, pos_cov, neg_cov);
  if (gain > best->gain) {
    best->constraint = c;
    best->gain = gain;
    best->pos_cov = pos_cov;
    best->neg_cov = neg_cov;
  }
}

void LiteralSearcher::CountNew(const IdPairs& pairs, size_t lo, size_t hi,
                               uint32_t* pos_cov, uint32_t* neg_cov) {
  const std::vector<uint8_t>& alive = *alive_;
  const std::vector<uint8_t>& positive = *positive_;
  for (size_t k = lo; k < hi; ++k) {
    const uint32_t id = PairId(pairs[k]);
    if (!alive[id] || mark_[id] == epoch_) continue;
    mark_[id] = epoch_;
    ++*(positive[id] ? pos_cov : neg_cov);
  }
}

CandidateLiteral LiteralSearcher::FindBest(RelId rel_id, const IdPairs& pairs,
                                           const CrossMineOptions& opts) {
  CM_CHECK(alive_ != nullptr);
  const Relation& rel = db_->relation(rel_id);
  CM_CHECK(pairs.empty() || PairTuple(pairs.back()) < rel.num_tuples());

  Stopwatch watch;
  offered_ = 0;
  runs_.clear();
  for (size_t lo = 0; lo < pairs.size(); lo = TupleRunEnd(pairs, lo)) {
    runs_.push_back(static_cast<uint32_t>(lo));
  }
  runs_.push_back(static_cast<uint32_t>(pairs.size()));

  CandidateLiteral best;
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    switch (rel.schema().attr(a).kind) {
      case AttrKind::kPrimaryKey:
      case AttrKind::kForeignKey:
        break;  // keys are join plumbing, not literal material
      case AttrKind::kCategorical:
        SearchCategorical(rel, a, pairs, &best);
        break;
      case AttrKind::kNumerical:
        if (opts.use_numerical_literals) {
          SearchNumerical(rel, a, pairs, &best);
        }
        break;
    }
  }
  if (opts.use_aggregation_literals) {
    SearchAggregations(rel, pairs, &best);
  }
  if (literals_scored_ != nullptr) literals_scored_->Add(offered_);
  if (search_time_ != nullptr) search_time_->AddSeconds(watch.ElapsedSeconds());
  return best;
}

void LiteralSearcher::SearchCategorical(const Relation& rel, AttrId attr,
                                        const IdPairs& pairs,
                                        CandidateLiteral* best) {
  std::shared_ptr<const AttrIndex> handle = rel.GetAttrIndex(attr);
  const AttrIndex& index = *handle;
  const size_t num_values = index.num_values();

  // Counting-sort the tuple runs by value slot. NULL satisfies no
  // category, so NULL runs land in a trailing bucket no value reads.
  // Placement advances each bucket's cursor to its end, leaving the runs
  // of value v at order_[v == 0 ? 0 : bucket_[v - 1], bucket_[v]).
  const Column<int64_t>& col = rel.IntColumn(attr);
  const size_t num_runs = runs_.size() - 1;
  run_value_.resize(num_runs);
  bucket_.assign(num_values + 1, 0);
  for (size_t r = 0; r < num_runs; ++r) {
    const int64_t value = col[PairTuple(pairs[runs_[r]])];
    const size_t v = value == kNullValue ? num_values : index.FindValue(value);
    CM_CHECK(v != AttrIndex::npos);
    run_value_[r] = static_cast<uint32_t>(v);
    ++bucket_[v];
  }
  uint32_t start = 0;
  for (uint32_t& b : bucket_) {
    const uint32_t count = b;
    b = start;
    start += count;
  }
  order_.resize(num_runs);
  for (size_t r = 0; r < num_runs; ++r) {
    order_[bucket_[run_value_[r]]++] = static_cast<uint32_t>(r);
  }

  // Slots ascend by value, so candidates are offered — and gain ties
  // broken — in category-value order. An empty direct-addressed slot is a
  // value the relation does not hold: no candidate.
  for (size_t v = 0; v < num_values; ++v) {
    if (index.posting_count(v) == 0) continue;
    uint32_t pos_cov = 0, neg_cov = 0;
    const uint32_t begin = v == 0 ? 0 : bucket_[v - 1];
    const uint32_t end = bucket_[v];
    if (begin < end) NewEpoch();
    for (uint32_t i = begin; i < end; ++i) {
      const uint32_t r = order_[i];
      CountNew(pairs, runs_[r], runs_[r + 1], &pos_cov, &neg_cov);
    }
    Constraint c;
    c.attr = attr;
    c.cmp = CmpOp::kEq;
    c.category = index.value(v);
    Offer(best, c, pos_cov, neg_cov);
  }
}

template <typename Value, typename Step>
void LiteralSearcher::SweepThresholds(size_t n, AttrId attr, AggOp agg,
                                      Value value, Step step,
                                      CandidateLiteral* best) {
  Constraint c;
  c.attr = attr;
  c.agg = agg;
  uint32_t pos_cov = 0, neg_cov = 0;
  // Ascending: [value <= v], offered at distinct-value boundaries only.
  NewEpoch();
  c.cmp = CmpOp::kLe;
  for (size_t i = 0; i < n; ++i) {
    step(i, &pos_cov, &neg_cov);
    if (i + 1 < n && value(i + 1) == value(i)) continue;
    c.threshold = value(i);
    Offer(best, c, pos_cov, neg_cov);
  }
  // Descending: [value >= v].
  NewEpoch();
  pos_cov = neg_cov = 0;
  c.cmp = CmpOp::kGe;
  for (size_t i = n; i-- > 0;) {
    step(i, &pos_cov, &neg_cov);
    if (i > 0 && value(i - 1) == value(i)) continue;
    c.threshold = value(i);
    Offer(best, c, pos_cov, neg_cov);
  }
}

void LiteralSearcher::SearchNumerical(const Relation& rel, AttrId attr,
                                      const IdPairs& pairs,
                                      CandidateLiteral* best) {
  const Column<double>& col = rel.DoubleColumn(attr);

  // The frontier's tuple runs in (value, tuple) order: the sorted index
  // restricted to tuples that carry ids. Each step counts its run's newly
  // covered targets under the direction's mark epoch.
  const size_t num_runs = runs_.size() - 1;
  sorted_runs_.clear();
  for (size_t r = 0; r < num_runs; ++r) {
    sorted_runs_.emplace_back(col[PairTuple(pairs[runs_[r]])],
                              static_cast<uint32_t>(r));
  }
  std::sort(sorted_runs_.begin(), sorted_runs_.end());
  SweepThresholds(
      sorted_runs_.size(), attr, AggOp::kNone,
      [&](size_t i) { return sorted_runs_[i].first; },
      [&](size_t i, uint32_t* pos_cov, uint32_t* neg_cov) {
        const uint32_t r = sorted_runs_[i].second;
        CountNew(pairs, runs_[r], runs_[r + 1], pos_cov, neg_cov);
      },
      best);
}

void LiteralSearcher::SweepSortedTargets(
    const std::vector<std::pair<double, TupleId>>& entries, AggOp agg,
    AttrId attr, CandidateLiteral* best) {
  const std::vector<uint8_t>& positive = *positive_;
  SweepThresholds(
      entries.size(), attr, agg, [&](size_t i) { return entries[i].first; },
      [&](size_t i, uint32_t* pos_cov, uint32_t* neg_cov) {
        ++*(positive[entries[i].second] ? pos_cov : neg_cov);
      },
      best);
}

void LiteralSearcher::SearchAggregations(const Relation& rel,
                                         const IdPairs& pairs,
                                         CandidateLiteral* best) {
  const std::vector<uint8_t>& alive = *alive_;

  // Per-target join count (shared by count(*) and as the divisor for avg).
  // `touched` lists targets with at least one joinable tuple.
  std::vector<TupleId> touched;
  for (IdPair p : pairs) {
    const uint32_t id = PairId(p);
    if (!alive[id]) continue;
    if (agg_count_[id] == 0) touched.push_back(id);
    ++agg_count_[id];
  }
  if (touched.empty()) return;

  // count(*) literal.
  {
    std::vector<std::pair<double, TupleId>> entries;
    entries.reserve(touched.size());
    for (TupleId id : touched) {
      entries.emplace_back(static_cast<double>(agg_count_[id]), id);
    }
    std::sort(entries.begin(), entries.end());
    SweepSortedTargets(entries, AggOp::kCount, kInvalidAttr, best);
  }

  // sum(attr) / avg(attr) for every numerical attribute. Pairs walk in
  // (tuple, id) order, so each target sums in ascending tuple order.
  const size_t num_runs = runs_.size() - 1;
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    if (rel.schema().attr(a).kind != AttrKind::kNumerical) continue;
    for (TupleId id : touched) agg_sum_[id] = 0.0;
    const Column<double>& col = rel.DoubleColumn(a);
    for (size_t r = 0; r < num_runs; ++r) {
      const double v = col[PairTuple(pairs[runs_[r]])];
      for (uint32_t k = runs_[r]; k < runs_[r + 1]; ++k) {
        const uint32_t id = PairId(pairs[k]);
        if (alive[id]) agg_sum_[id] += v;
      }
    }
    std::vector<std::pair<double, TupleId>> entries;
    entries.reserve(touched.size());
    for (TupleId id : touched) entries.emplace_back(agg_sum_[id], id);
    std::sort(entries.begin(), entries.end());
    SweepSortedTargets(entries, AggOp::kSum, a, best);

    for (auto& [value, id] : entries) value /= agg_count_[id];
    std::sort(entries.begin(), entries.end());
    SweepSortedTargets(entries, AggOp::kAvg, a, best);
  }

  // Reset scratch counters.
  for (TupleId id : touched) agg_count_[id] = 0;
}

}  // namespace crossmine
