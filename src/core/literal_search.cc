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
  // Pack the alive targets of each class as bitmap-kernel operands. The
  // masks are disjoint and their union is the alive set, so a covered-id
  // bitmap ANDed against them yields the distinct pos/neg counts directly.
  size_t words = bitmap_ops::WordsForBits(alive_->size());
  alive_pos_words_.assign(words, 0);
  alive_neg_words_.assign(words, 0);
  union_words_.assign(words, 0);
  for (size_t id = 0; id < alive_->size(); ++id) {
    if (!(*alive_)[id]) continue;
    if ((*positive_)[id]) {
      bitmap_ops::SetBit(alive_pos_words_.data(), static_cast<TupleId>(id));
    } else {
      bitmap_ops::SetBit(alive_neg_words_.data(), static_cast<TupleId>(id));
    }
  }
}

void LiteralSearcher::set_metrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    literals_scored_ = nullptr;
    index_hits_ = nullptr;
    search_time_ = nullptr;
    return;
  }
  literals_scored_ = metrics->counter("train.literals_scored");
  index_hits_ = metrics->counter("train.index.hits");
  search_time_ = metrics->timer("train.phase.literal_search_seconds");
}

uint32_t LiteralSearcher::NewEpoch() {
  if (++epoch_ == 0) {
    // Wrapped around: clear stamps and restart.
    std::fill(mark_.begin(), mark_.end(), 0u);
    epoch_ = 1;
  }
  return epoch_;
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

CandidateLiteral LiteralSearcher::FindBest(RelId rel_id,
                                           const IdSetStore& idsets,
                                           const CrossMineOptions& opts,
                                           bool identity_idsets) {
  CM_CHECK(alive_ != nullptr);
  const Relation& rel = db_->relation(rel_id);
  CM_CHECK(idsets.num_sets() == rel.num_tuples());
  CM_CHECK(static_cast<size_t>(idsets.universe()) == alive_->size());
  identity_ = identity_idsets;

  Stopwatch watch;
  offered_ = 0;
  hits_ = 0;
  CandidateLiteral best;
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    switch (rel.schema().attr(a).kind) {
      case AttrKind::kPrimaryKey:
      case AttrKind::kForeignKey:
        break;  // keys are join plumbing, not literal material
      case AttrKind::kCategorical:
        SearchCategorical(rel, a, idsets, &best);
        break;
      case AttrKind::kNumerical:
        if (opts.use_numerical_literals) {
          SearchNumerical(rel, a, idsets, &best);
        }
        break;
    }
  }
  if (opts.use_aggregation_literals) {
    SearchAggregations(rel, idsets, &best);
  }
  if (literals_scored_ != nullptr) literals_scored_->Add(offered_);
  if (index_hits_ != nullptr && hits_ != 0) index_hits_->Add(hits_);
  if (search_time_ != nullptr) search_time_->AddSeconds(watch.ElapsedSeconds());
  return best;
}

void LiteralSearcher::SearchCategorical(const Relation& rel, AttrId attr,
                                        const IdSetStore& idsets,
                                        CandidateLiteral* best) {
  std::shared_ptr<const AttrIndex> handle = rel.GetAttrIndex(attr);
  const AttrIndex& index = *handle;
  const std::vector<uint8_t>& alive = *alive_;
  const std::vector<uint8_t>& positive = *positive_;
  size_t words = alive_pos_words_.size();
  const uint64_t* pos_words = alive_pos_words_.data();
  const uint64_t* neg_words = alive_neg_words_.data();
  // `index.values` ascends, so candidates are offered — and gain ties
  // broken — in category-value order.
  for (size_t v = 0; v < index.num_values(); ++v) {
    const TupleId* tuples = index.posting(v);
    uint32_t n = index.posting_count(v);
    uint32_t pos_cov = 0, neg_cov = 0;
    if (identity_) {
      // Node-0 store (idset(t) = {t} iff alive[t]): the posting itself is
      // the covered-target set, so count it directly against the class
      // masks without touching the store.
      const uint64_t* pw = index.posting_words(v);
      if (pw != nullptr) {
        pos_cov = static_cast<uint32_t>(
            bitmap_ops::AndPopcount(pw, pos_words, words));
        neg_cov = static_cast<uint32_t>(
            bitmap_ops::AndPopcount(pw, neg_words, words));
        ++hits_;
      } else {
        for (uint32_t i = 0; i < n; ++i) {
          TupleId id = tuples[i];
          if (!alive[id]) continue;
          if (positive[id]) {
            ++pos_cov;
          } else {
            ++neg_cov;
          }
        }
      }
    } else {
      // One pass over the posting collects the tuples with non-empty
      // idsets (under sampling most are empty) together with the summed
      // cardinality and representation mix; the chosen branch then touches
      // only those. The word-parallel union pays off once any contributing
      // idset is bitmap-kind (decoding it id-by-id is the expensive part)
      // or the summed cardinality reaches the accumulator's own footprint;
      // sparser postings take the epoch-stamped walk.
      nonempty_.clear();
      uint64_t total = 0;
      bool any_bitmap = false;
      for (uint32_t i = 0; i < n; ++i) {
        TupleId t = tuples[i];
        uint32_t card = idsets.Cardinality(t);
        if (card == 0) continue;
        nonempty_.push_back(t);
        total += card;
        any_bitmap = any_bitmap || idsets.IsBitmap(t);
      }
      if (any_bitmap || total >= 2 * words) {
        std::fill(union_words_.begin(), union_words_.end(), 0);
        uint64_t* acc = union_words_.data();
        constexpr uint64_t kNoSpan = ~uint64_t{0};
        uint64_t last_span = kNoSpan;
        for (TupleId t : nonempty_) {
          uint64_t span = idsets.span_key(t);
          if (span == last_span) continue;  // aliased neighbor: already ORed
          last_span = span;
          if (idsets.IsBitmap(t)) {
            bitmap_ops::Or(acc, idsets.bitmap_words(t), words);
          } else {
            const TupleId* ids = idsets.sparse_ids(t);
            uint32_t m = idsets.Cardinality(t);
            for (uint32_t j = 0; j < m; ++j) bitmap_ops::SetBit(acc, ids[j]);
          }
        }
        pos_cov = static_cast<uint32_t>(
            bitmap_ops::AndPopcount(acc, pos_words, words));
        neg_cov = static_cast<uint32_t>(
            bitmap_ops::AndPopcount(acc, neg_words, words));
        ++hits_;
      } else if (!nonempty_.empty()) {
        uint32_t epoch = NewEpoch();
        for (TupleId t : nonempty_) {
          idsets.ForEach(t, [&](TupleId id) {
            if (!alive[id] || mark_[id] == epoch) return;
            mark_[id] = epoch;
            if (positive[id]) {
              ++pos_cov;
            } else {
              ++neg_cov;
            }
          });
        }
      }
    }
    Constraint c;
    c.attr = attr;
    c.cmp = CmpOp::kEq;
    c.category = index.values[v];
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
  std::fill(union_words_.begin(), union_words_.end(), 0);
  c.cmp = CmpOp::kLe;
  for (size_t i = 0; i < n; ++i) {
    step(i, &pos_cov, &neg_cov);
    if (i + 1 < n && value(i + 1) == value(i)) continue;
    c.threshold = value(i);
    Offer(best, c, pos_cov, neg_cov);
  }
  // Descending: [value >= v].
  std::fill(union_words_.begin(), union_words_.end(), 0);
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
                                      const IdSetStore& idsets,
                                      CandidateLiteral* best) {
  std::shared_ptr<const std::vector<TupleId>> order_handle =
      rel.GetSortedIndex(attr);
  const std::vector<TupleId>& order = *order_handle;
  const Column<double>& col = rel.DoubleColumn(attr);
  const std::vector<uint8_t>& alive = *alive_;
  const std::vector<uint8_t>& positive = *positive_;
  auto value = [&](size_t i) { return col[order[i]]; };
  ++hits_;

  if (identity_) {
    // Node-0 store: each sweep step covers exactly its own tuple, so the
    // cumulative counts are direct class checks — no marking, no bitmaps.
    SweepThresholds(
        order.size(), attr, AggOp::kNone, value,
        [&](size_t i, uint32_t* pos_cov, uint32_t* neg_cov) {
          TupleId t = order[i];
          if (alive[t]) ++*(positive[t] ? pos_cov : neg_cov);
        },
        best);
    return;
  }

  // Incremental sweep on the counting kernel: the covered-target bitmap
  // accumulates across steps and `OrCountNew` classifies each newly set
  // bit by the disjoint class masks — dead ids land in neither. Aliased
  // spans OR in zero fresh bits, so no dedup is needed for correctness.
  size_t words = alive_pos_words_.size();
  const uint64_t* pos_words = alive_pos_words_.data();
  const uint64_t* neg_words = alive_neg_words_.data();
  uint64_t* acc = union_words_.data();
  SweepThresholds(
      order.size(), attr, AggOp::kNone, value,
      [&](size_t i, uint32_t* pos_cov, uint32_t* neg_cov) {
        TupleId t = order[i];
        if (idsets.empty(t)) return;
        if (idsets.IsBitmap(t)) {
          bitmap_ops::OrCountNew(acc, idsets.bitmap_words(t), pos_words,
                                 neg_words, words, pos_cov, neg_cov);
          return;
        }
        const TupleId* ids = idsets.sparse_ids(t);
        uint32_t m = idsets.Cardinality(t);
        for (uint32_t j = 0; j < m; ++j) {
          TupleId id = ids[j];
          if (bitmap_ops::TestBit(acc, id)) continue;
          bitmap_ops::SetBit(acc, id);
          if (bitmap_ops::TestBit(pos_words, id)) {
            ++*pos_cov;
          } else if (bitmap_ops::TestBit(neg_words, id)) {
            ++*neg_cov;
          }
        }
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
                                         const IdSetStore& idsets,
                                         CandidateLiteral* best) {
  const std::vector<uint8_t>& alive = *alive_;

  // Per-target join count (shared by count(*) and as the divisor for avg).
  // `touched` lists targets with at least one joinable tuple.
  std::vector<TupleId> touched;
  for (uint32_t t = 0; t < idsets.num_sets(); ++t) {
    idsets.ForEach(t, [&](TupleId id) {
      if (!alive[id]) return;
      if (agg_count_[id] == 0) touched.push_back(id);
      ++agg_count_[id];
    });
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

  // sum(attr) / avg(attr) for every numerical attribute.
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    if (rel.schema().attr(a).kind != AttrKind::kNumerical) continue;
    for (TupleId id : touched) agg_sum_[id] = 0.0;
    const Column<double>& col = rel.DoubleColumn(a);
    for (TupleId t = 0; t < rel.num_tuples(); ++t) {
      if (idsets.empty(t)) continue;
      double v = col[t];
      idsets.ForEach(t, [&](TupleId id) {
        if (alive[id]) agg_sum_[id] += v;
      });
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
