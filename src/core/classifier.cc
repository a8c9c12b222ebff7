#include "core/classifier.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/clause_builder.h"
#include "core/clause_eval.h"
#include "core/foil_gain.h"
#include "core/model_io.h"
#include "core/sampling.h"
#include "relational/index_cache.h"

namespace crossmine {

Status CrossMineClassifier::Train(const Database& db,
                                  const std::vector<TupleId>& train_ids) {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database not finalized");
  }
  if (train_ids.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  TupleId num_targets = db.target_relation().num_tuples();
  for (TupleId id : train_ids) {
    if (id >= num_targets) {
      return Status::OutOfRange("train id beyond target relation");
    }
  }

  trained_fingerprint_ = 0;
  clauses_.clear();
  num_classes_ = db.num_classes();

  ScopedMetricTimer wall(metrics_, "train.wall_seconds");
  TouchStandardTrainMetrics(metrics_);
  if (metrics_ != nullptr) {
    for (ClassId cls = 0; cls < num_classes_; ++cls) {
      metrics_->counter(StrFormat("train.clauses_built.class_%d", cls));
    }
  }

  std::vector<uint8_t> in_train(num_targets, 0);
  for (TupleId id : train_ids) in_train[id] = 1;

  // Default class = training majority.
  std::vector<uint32_t> class_count(static_cast<size_t>(num_classes_), 0);
  for (TupleId id : train_ids) {
    ++class_count[static_cast<size_t>(db.labels()[id])];
  }
  default_class_ = static_cast<ClassId>(
      std::max_element(class_count.begin(), class_count.end()) -
      class_count.begin());

  // One worker pool for the whole training run; the clause-search hot path
  // shares it across classes and clauses. `num_threads == 1` (or a 1-CPU
  // host with the `0` auto default) never spawns a thread.
  int num_threads = ThreadPool::Resolve(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  // One-vs-rest: learn clauses for every class (§5.3).
  const IndexCache::Stats index_stats_before = IndexCache::Global().stats();
  const uint64_t materializations_before =
      ColumnMaterializationCount().load(std::memory_order_relaxed);
  Rng rng(options_.seed);
  for (ClassId cls = 0; cls < num_classes_; ++cls) {
    if (class_count[static_cast<size_t>(cls)] == 0) continue;
    std::vector<uint8_t> positive(num_targets, 0);
    for (TupleId id : train_ids) {
      if (db.labels()[id] == cls) positive[id] = 1;
    }
    TrainOneClass(db, cls, positive, in_train, rng.Next(), pool.get());
  }
  if (metrics_ != nullptr) {
    // The IndexCache's counters are process-cumulative, so report *deltas*
    // over this Train call (repeat Train calls on warm indexes add zero)
    // plus the cache-wide residency gauges: current/peak cached bytes and
    // the configured budget high-water mark.
    const IndexCache& cache = IndexCache::Global();
    const IndexCache::Stats after = cache.stats();
    metrics_->timer("train.index.build_seconds")
        ->AddSeconds(after.build_seconds - index_stats_before.build_seconds);
    metrics_->counter("train.index.bytes")->MaxWith(after.current_bytes);
    metrics_->counter("train.index.peak_bytes")->MaxWith(after.peak_bytes);
    metrics_->counter("train.index.evictions")
        ->Add(after.evictions - index_stats_before.evictions);
    metrics_->counter("train.index.rebuilds")
        ->Add(after.rebuilds - index_stats_before.rebuilds);
    metrics_->counter("train.index.budget_bytes")
        ->MaxWith(cache.budget_bytes());
    // Copy-on-write audit: a read-only train must never materialize a
    // borrowed column (tests pin this at zero for `.cmdb` databases).
    metrics_->counter("storage.column.materializations")
        ->Add(ColumnMaterializationCount().load(std::memory_order_relaxed) -
              materializations_before);
  }

  // §5.3: estimate each clause's accuracy by predicting on the training
  // set — the clause's support over *all* training tuples, not just the
  // population it was built from. This demotes clauses that look pure on
  // their shrinking build population but misfire on tuples covered earlier
  // or belonging to other classes.
  {
    ScopedMetricTimer reestimate(metrics_, "train.phase.reestimation_seconds");
    std::vector<TupleId> train_list;  // train_ids, sorted and distinct
    for (TupleId t = 0; t < num_targets; ++t) {
      if (in_train[t]) train_list.push_back(t);
    }
    for (Clause& clause : clauses_) {
      std::vector<uint8_t> flags = EvaluateClause(db, clause, train_list);
      uint32_t sup_pos = 0, sup_neg = 0;
      for (size_t i = 0; i < train_list.size(); ++i) {
        if (!flags[i]) continue;
        if (db.labels()[train_list[i]] == clause.predicted_class) {
          ++sup_pos;
        } else {
          ++sup_neg;
        }
      }
      clause.sup_pos = sup_pos;
      clause.sup_neg = sup_neg;
      clause.accuracy = LaplaceAccuracy(sup_pos, sup_neg, num_classes_);
    }
  }
  trained_fingerprint_ = SchemaFingerprint(db);
  return Status::OK();
}

void CrossMineClassifier::TrainOneClass(const Database& db, ClassId cls,
                                        const std::vector<uint8_t>& positive,
                                        const std::vector<uint8_t>& in_train,
                                        uint64_t seed, ThreadPool* pool) {
  TupleId num_targets = db.target_relation().num_tuples();
  Rng rng(seed);

  // Uncovered positives (shrinks clause by clause) and the fixed negative
  // pool (negatives are never removed — Algorithm 1).
  std::vector<TupleId> remaining_pos;
  std::vector<TupleId> negatives;
  for (TupleId t = 0; t < num_targets; ++t) {
    if (!in_train[t]) continue;
    if (positive[t]) {
      remaining_pos.push_back(t);
    } else {
      negatives.push_back(t);
    }
  }
  size_t initial_pos = remaining_pos.size();
  if (initial_pos == 0) return;

  int built = 0;
  while (static_cast<double>(remaining_pos.size()) >
             options_.min_pos_fraction_left *
                 static_cast<double>(initial_pos) &&
         built < options_.max_clauses_per_class) {
    // Negative tuple sampling (§6): cap negatives at
    // NEG_POS_RATIO · |pos| and at MAX_NUM_NEGATIVE.
    std::vector<uint8_t> alive(num_targets, 0);
    uint64_t sampled_neg = 0;
    {
      ScopedMetricTimer sampling(metrics_, "train.phase.sampling_seconds");
      uint64_t neg_budget = negatives.size();
      if (options_.use_sampling) {
        // Compared as a double before any cast: the cap can exceed what a
        // uint64_t holds, and converting such a double is undefined.
        const double ratio_cap =
            options_.neg_pos_ratio * static_cast<double>(remaining_pos.size());
        if (ratio_cap < static_cast<double>(neg_budget)) {
          neg_budget = ratio_cap > 0 ? static_cast<uint64_t>(ratio_cap) : 0;
        }
        neg_budget = std::min<uint64_t>(neg_budget, options_.max_num_negative);
        // Keep a handful of negatives so clause quality remains measurable.
        neg_budget = std::max<uint64_t>(
            neg_budget, std::min<uint64_t>(negatives.size(), 10));
      }

      for (TupleId t : remaining_pos) alive[t] = 1;
      if (neg_budget >= negatives.size()) {
        for (TupleId t : negatives) alive[t] = 1;
        sampled_neg = negatives.size();
      } else {
        std::vector<uint32_t> pick = rng.SampleWithoutReplacement(
            static_cast<uint32_t>(negatives.size()),
            static_cast<uint32_t>(neg_budget));
        for (uint32_t i : pick) alive[negatives[i]] = 1;
        sampled_neg = neg_budget;
      }
      if (metrics_ != nullptr) {
        metrics_->counter("train.sampling.rounds")->Add();
        metrics_->counter("train.sampling.negatives_considered")
            ->Add(negatives.size());
        metrics_->counter("train.sampling.negatives_kept")->Add(sampled_neg);
        if (sampled_neg < negatives.size()) {
          metrics_->counter("train.sampling.rounds_subsampled")->Add();
        }
      }
    }

    ClauseBuilder builder(&db, &positive, &options_, pool, metrics_);
    uint32_t build_pos = static_cast<uint32_t>(remaining_pos.size());
    Clause clause = builder.Build(std::move(alive));
    if (clause.empty()) break;

    clause.predicted_class = cls;
    clause.build_pos = build_pos;
    clause.build_neg = static_cast<uint32_t>(sampled_neg);
    clause.sup_pos = builder.final_pos();
    // sup−: exact when all negatives were in scope, otherwise the §6 safe
    // estimate from the sampled counts.
    clause.sup_neg = SafeNegativeEstimate(negatives.size(), sampled_neg,
                                          builder.final_neg());
    clause.accuracy =
        LaplaceAccuracy(clause.sup_pos, clause.sup_neg, num_classes_);

    // Remove covered positives.
    const std::vector<uint8_t>& covered = builder.final_alive();
    size_t before = remaining_pos.size();
    remaining_pos.erase(
        std::remove_if(remaining_pos.begin(), remaining_pos.end(),
                       [&covered](TupleId t) { return covered[t] != 0; }),
        remaining_pos.end());
    clauses_.push_back(std::move(clause));
    ++built;
    if (metrics_ != nullptr) {
      metrics_->counter("train.clauses_built")->Add();
      metrics_->counter(StrFormat("train.clauses_built.class_%d", cls))
          ->Add();
    }
    if (remaining_pos.size() == before) break;  // no progress, stop
  }
}

namespace {

/// Records one prediction call into `metrics`: `satisfied_counts` holds the
/// satisfied-clause count of every predicted tuple (input order, repeats
/// included), `propagated_pairs` the frontier work of the evaluation.
void RecordPredictMetrics(MetricsRegistry* metrics, size_t num_clauses,
                          const std::vector<uint32_t>& satisfied_counts,
                          uint64_t propagated_pairs) {
  if (metrics == nullptr) return;
  metrics->counter("predict.tuples")->Add(satisfied_counts.size());
  metrics->counter("predict.clauses_evaluated")
      ->Add(num_clauses * satisfied_counts.size());
  metrics->counter("predict.propagated_pairs")->Add(propagated_pairs);
  uint64_t fallbacks = 0;
  std::array<uint64_t, 9> hist{};  // 0..7 satisfied clauses, then 8+
  for (uint32_t satisfied : satisfied_counts) {
    if (satisfied == 0) ++fallbacks;
    ++hist[std::min<uint32_t>(satisfied, 8)];
  }
  metrics->counter("predict.default_fallbacks")->Add(fallbacks);
  for (size_t b = 0; b < hist.size(); ++b) {
    if (hist[b] == 0) continue;
    metrics
        ->counter(b < 8 ? StrFormat("predict.satisfied.%zu", b)
                        : std::string("predict.satisfied.8plus"))
        ->Add(hist[b]);
  }
}

}  // namespace

std::vector<std::vector<int>> CrossMineClassifier::SatisfiedClauses(
    const Database& db, const std::vector<TupleId>& query, bool first_only,
    uint64_t* propagated_pairs) const {
  std::vector<std::vector<int>> satisfied(query.size());
  // The query entries still evaluated: their positions and ids.
  std::vector<uint32_t> open_pos(query.size());
  for (uint32_t pos = 0; pos < open_pos.size(); ++pos) open_pos[pos] = pos;
  std::vector<TupleId> open_ids = query;
  for (size_t i = 0; i < clauses_.size() && !open_ids.empty(); ++i) {
    std::vector<uint8_t> flags =
        EvaluateClause(db, clauses_[i], open_ids, propagated_pairs);
    size_t kept = 0;
    for (size_t k = 0; k < open_ids.size(); ++k) {
      if (flags[k]) {
        satisfied[open_pos[k]].push_back(static_cast<int>(i));
        if (first_only) continue;
      }
      open_pos[kept] = open_pos[k];
      open_ids[kept] = open_ids[k];
      ++kept;
    }
    open_pos.resize(kept);
    open_ids.resize(kept);
  }
  return satisfied;
}

CrossMineClassifier::Explanation CrossMineClassifier::Combine(
    std::vector<int> satisfied) const {
  Explanation out;
  out.predicted = default_class_;
  out.satisfied = std::move(satisfied);
  if (out.satisfied.empty()) return out;
  // The most accurate satisfied clause among those of class `cls` (any
  // class when `cls` < 0); the first one on ties.
  auto most_accurate = [this, &out](ClassId cls) {
    int best_index = -1;
    double best = -1.0;
    for (int i : out.satisfied) {
      const Clause& clause = clauses_[static_cast<size_t>(i)];
      if (cls >= 0 && clause.predicted_class != cls) continue;
      if (clause.accuracy > best) {
        best = clause.accuracy;
        best_index = i;
      }
    }
    return best_index;
  };
  switch (options_.prediction_mode) {
    case PredictionMode::kBestClause:
      // §5.3: the most accurate satisfied clause wins.
      out.clause_index = most_accurate(-1);
      break;
    case PredictionMode::kDecisionList:
      // First satisfied clause in learning order wins.
      out.clause_index = out.satisfied.front();
      break;
    case PredictionMode::kWeightedVote: {
      // Satisfied clauses vote with their edge over chance; the deciding
      // clause is the most accurate one of the winning class.
      double chance = 1.0 / std::max(1, num_classes_);
      std::vector<double> votes(static_cast<size_t>(std::max(1, num_classes_)),
                                0.0);
      for (int i : out.satisfied) {
        const Clause& clause = clauses_[static_cast<size_t>(i)];
        votes[static_cast<size_t>(clause.predicted_class)] +=
            std::max(0.0, clause.accuracy - chance);
      }
      out.predicted = static_cast<ClassId>(
          std::max_element(votes.begin(), votes.end()) - votes.begin());
      out.clause_index = most_accurate(out.predicted);
      return out;
    }
  }
  out.predicted =
      clauses_[static_cast<size_t>(out.clause_index)].predicted_class;
  return out;
}

std::vector<ClassId> CrossMineClassifier::Predict(
    const Database& db, const std::vector<TupleId>& ids) const {
  ScopedMetricTimer wall(metrics_, "predict.wall_seconds");
  TouchStandardPredictMetrics(metrics_);
  // Clauses are evaluated over the distinct ids in ascending order; the
  // answers map back to the caller's order (repeats included).
  std::vector<TupleId> query = ids;
  std::sort(query.begin(), query.end());
  query.erase(std::unique(query.begin(), query.end()), query.end());
  CM_CHECK(query.empty() ||
           query.back() < db.target_relation().num_tuples());

  uint64_t pairs = 0;
  std::vector<std::vector<int>> satisfied = SatisfiedClauses(
      db, query,
      /*first_only=*/options_.prediction_mode == PredictionMode::kDecisionList,
      &pairs);
  std::vector<uint32_t> counts(query.size());
  std::vector<ClassId> decided(query.size());
  for (size_t pos = 0; pos < query.size(); ++pos) {
    counts[pos] = static_cast<uint32_t>(satisfied[pos].size());
    decided[pos] = Combine(std::move(satisfied[pos])).predicted;
  }

  std::vector<ClassId> out;
  std::vector<uint32_t> input_counts;
  out.reserve(ids.size());
  input_counts.reserve(ids.size());
  for (TupleId id : ids) {
    size_t pos = static_cast<size_t>(
        std::lower_bound(query.begin(), query.end(), id) - query.begin());
    out.push_back(decided[pos]);
    input_counts.push_back(counts[pos]);
  }
  RecordPredictMetrics(metrics_, clauses_.size(), input_counts, pairs);
  return out;
}

CrossMineClassifier::Explanation CrossMineClassifier::Explain(
    const Database& db, TupleId id) const {
  ScopedMetricTimer wall(metrics_, "predict.wall_seconds");
  TouchStandardPredictMetrics(metrics_);
  CM_CHECK(id < db.target_relation().num_tuples());
  uint64_t pairs = 0;
  std::vector<std::vector<int>> satisfied =
      SatisfiedClauses(db, {id}, /*first_only=*/false, &pairs);
  RecordPredictMetrics(metrics_, clauses_.size(),
                       {static_cast<uint32_t>(satisfied[0].size())}, pairs);
  return Combine(std::move(satisfied[0]));
}

std::string CrossMineClassifier::ToString(const Database& db) const {
  std::string out = StrFormat("CrossMine model: %zu clauses, default class %d\n",
                              clauses_.size(), default_class_);
  for (const Clause& clause : clauses_) {
    out += StrFormat("  [acc=%.3f sup+=%g sup-=%g] ", clause.accuracy,
                     clause.sup_pos, clause.sup_neg);
    out += clause.ToString(db);
    out += "\n";
  }
  return out;
}

}  // namespace crossmine
