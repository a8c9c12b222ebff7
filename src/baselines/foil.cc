#include "baselines/foil.h"

#include <algorithm>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/clause_eval.h"
#include "core/foil_gain.h"
#include "core/model_io.h"

namespace crossmine::baselines {

namespace {

/// One scored search step: an optional join edge off an existing column
/// plus a constraint.
struct FoilChoice {
  double gain = -1.0;
  int source_col = -1;
  int32_t edge = -1;  // -1: constraint on the existing column
  Constraint constraint;
  bool valid() const { return gain >= 0.0; }
};

/// Scores all candidates on column `col` of `table`, updating `best`.
/// FOIL works in *binding* space: `pos`/`neg` and candidate coverage count
/// rows, not distinct targets (the §4.3 label-propagation pathology), and
/// every candidate pays a full dataset-construction pass (§2).
void ScoreCandidates(const BindingsTable& table, int col,
                     const std::vector<ClassId>& labels, uint32_t pos,
                     uint32_t neg, int32_t edge, int source_col,
                     const FoilOptions& options, Counter* scored,
                     FoilChoice* best) {
  const Relation& rel = table.db().relation(table.col_relation(col));
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    const Attribute& attr = rel.schema().attr(a);
    if (attr.kind != AttrKind::kCategorical &&
        !(attr.kind == AttrKind::kNumerical &&
          options.use_numerical_literals)) {
      continue;
    }
    std::vector<BaselineCandidate> cands = EvaluateByConstruction(
        table, col, a, labels, 2, /*count_rows=*/true,
        options.max_numeric_thresholds);
    if (scored != nullptr) scored->Add(cands.size());
    for (const BaselineCandidate& cand : cands) {
      uint32_t p = cand.counts[1];
      uint32_t n = cand.counts[0];
      if (p == 0) continue;
      if (p == pos && n == neg) continue;  // no discrimination
      double gain = FoilGain(pos, neg, p, n);
      if (gain > best->gain) {
        best->gain = gain;
        best->source_col = source_col;
        best->edge = edge;
        best->constraint = cand.constraint;
      }
    }
  }
}

}  // namespace

Status FoilClassifier::Train(const Database& db,
                             const std::vector<TupleId>& train_ids) {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database not finalized");
  }
  if (train_ids.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  clauses_.clear();
  truncated_ = false;
  trained_fingerprint_ = 0;
  num_classes_ = db.num_classes();
  timer_.Reset();

  ScopedMetricTimer wall(metrics_, "train.wall_seconds");
  TouchStandardTrainMetrics(metrics_);

  std::vector<uint32_t> class_count(static_cast<size_t>(num_classes_), 0);
  for (TupleId id : train_ids) {
    ++class_count[static_cast<size_t>(db.labels()[id])];
  }
  default_class_ = static_cast<ClassId>(
      std::max_element(class_count.begin(), class_count.end()) -
      class_count.begin());

  for (ClassId cls = 0; cls < num_classes_; ++cls) {
    if (metrics_ != nullptr) {
      metrics_->counter(StrFormat("train.clauses_built.class_%d", cls));
    }
    if (class_count[static_cast<size_t>(cls)] == 0) continue;
    // Binary view: 1 = this class, 0 = rest.
    std::vector<ClassId> binary_labels(db.target_relation().num_tuples(), 0);
    std::vector<TupleId> positives, negatives;
    for (TupleId id : train_ids) {
      if (db.labels()[id] == cls) {
        binary_labels[id] = 1;
        positives.push_back(id);
      } else {
        negatives.push_back(id);
      }
    }
    TrainOneClass(db, cls, binary_labels, std::move(positives), negatives);
    if (OverBudget()) {
      truncated_ = true;
      break;
    }
  }
  trained_fingerprint_ = SchemaFingerprint(db);
  return Status::OK();
}

void FoilClassifier::TrainOneClass(const Database& db, ClassId cls,
                                   const std::vector<ClassId>& binary_labels,
                                   std::vector<TupleId> positives,
                                   const std::vector<TupleId>& negatives) {
  size_t initial_pos = positives.size();
  int built = 0;
  while (static_cast<double>(positives.size()) >
             options_.min_pos_fraction_left *
                 static_cast<double>(initial_pos) &&
         built < options_.max_clauses_per_class) {
    if (OverBudget()) {
      truncated_ = true;
      return;
    }
    std::vector<TupleId> examples = positives;
    examples.insert(examples.end(), negatives.begin(), negatives.end());
    std::sort(examples.begin(), examples.end());

    BindingsTable final_table(&db, std::vector<TupleId>{});
    Clause clause = BuildClause(db, binary_labels, examples, &final_table);
    if (clause.empty()) break;

    clause.predicted_class = cls;
    std::vector<uint32_t> counts = final_table.ClassCounts(binary_labels, 2);
    clause.build_pos = static_cast<uint32_t>(positives.size());
    clause.build_neg = static_cast<uint32_t>(negatives.size());
    clause.sup_pos = counts[1];
    clause.sup_neg = counts[0];
    clause.accuracy =
        LaplaceAccuracy(clause.sup_pos, clause.sup_neg, num_classes_);

    std::vector<uint8_t> covered(db.target_relation().num_tuples(), 0);
    for (TupleId t : final_table.DistinctTargets()) covered[t] = 1;
    size_t before = positives.size();
    positives.erase(
        std::remove_if(positives.begin(), positives.end(),
                       [&covered](TupleId t) { return covered[t] != 0; }),
        positives.end());
    clauses_.push_back(std::move(clause));
    if (metrics_ != nullptr) {
      metrics_->counter("train.clauses_built")->Add(1);
      metrics_->counter(StrFormat("train.clauses_built.class_%d", cls))
          ->Add(1);
    }
    ++built;
    if (positives.size() == before) break;
  }
}

Clause FoilClassifier::BuildClause(const Database& db,
                                   const std::vector<ClassId>& binary_labels,
                                   const std::vector<TupleId>& examples,
                                   BindingsTable* final_table) {
  BindingsTable table(&db, examples);
  Clause clause(db.target());

  Timer* search_time = nullptr;
  Timer* join_time = nullptr;
  Counter* scored = nullptr;
  Counter* joins_run = nullptr;
  if (metrics_ != nullptr) {
    search_time = metrics_->timer("train.phase.literal_search_seconds");
    join_time = metrics_->timer("train.phase.join_seconds");
    scored = metrics_->counter("train.literals_scored");
    joins_run = metrics_->counter("train.joins_run");
  }

  while (clause.length() < options_.max_clause_length) {
    if (OverBudget()) break;
    std::vector<uint32_t> counts = table.RowClassCounts(binary_labels, 2);
    uint32_t pos = counts[1], neg = counts[0];
    if (pos == 0 || neg == 0) break;

    FoilChoice best;
    for (int col = 0; col < table.num_cols(); ++col) {
      // Constraints on an already-bound column.
      {
        Stopwatch watch;
        ScoreCandidates(table, col, binary_labels, pos, neg, /*edge=*/-1, col,
                        options_, scored, &best);
        if (search_time != nullptr) {
          search_time->AddSeconds(watch.ElapsedSeconds());
        }
      }
      // Literals behind a join: every candidate re-executes the physical
      // join (the §2 cost model of plain FOIL).
      for (int32_t e : db.OutEdges(table.col_relation(col))) {
        const JoinEdge& edge = db.edges()[static_cast<size_t>(e)];
        Stopwatch join_watch;
        std::vector<BaselineCandidate> cands = EvaluateJoinCandidates(
            table, col, edge, binary_labels, 2, /*count_rows=*/true,
            options_.use_numerical_literals, options_.max_numeric_thresholds,
            options_.max_join_rows, nullptr, options_.indexed_joins);
        if (join_time != nullptr) {
          join_time->AddSeconds(join_watch.ElapsedSeconds());
        }
        if (joins_run != nullptr) joins_run->Add(1);
        if (scored != nullptr) scored->Add(cands.size());
        for (const BaselineCandidate& cand : cands) {
          uint32_t p = cand.counts[1];
          uint32_t n = cand.counts[0];
          if (p == 0) continue;
          double gain = FoilGain(pos, neg, p, n);
          if (gain > best.gain) {
            best.gain = gain;
            best.source_col = col;
            best.edge = e;
            best.constraint = cand.constraint;
          }
        }
        if (OverBudget()) break;
      }
      if (OverBudget()) break;
    }
    if (!best.valid() || best.gain < options_.min_foil_gain) break;

    // Apply the chosen step to the bindings and record it in the clause.
    ComplexLiteral lit;
    lit.source_node = best.source_col;
    if (best.edge >= 0) lit.edge_path = {best.edge};
    lit.constraint = best.constraint;
    lit.gain = best.gain;
    if (best.edge >= 0) {
      const JoinEdge& edge = db.edges()[static_cast<size_t>(best.edge)];
      Stopwatch join_watch;
      BindingsTable joined(&db, std::vector<TupleId>{});
      bool ok = table.Join(edge, best.source_col, options_.max_join_rows,
                           &joined, options_.indexed_joins);
      CM_CHECK_MSG(ok, "join succeeded during search but failed on apply");
      table = std::move(joined);
      if (join_time != nullptr) {
        join_time->AddSeconds(join_watch.ElapsedSeconds());
      }
      if (joins_run != nullptr) joins_run->Add(1);
      table.Filter(best.constraint, table.num_cols() - 1);
    } else {
      table.Filter(best.constraint, best.source_col);
    }
    clause.Append(db, std::move(lit));
  }

  *final_table = std::move(table);
  return clause;
}

std::vector<ClassId> FoilClassifier::Predict(
    const Database& db, const std::vector<TupleId>& ids) const {
  ScopedMetricTimer wall(metrics_, "predict.wall_seconds");
  TouchStandardPredictMetrics(metrics_);
  // Clauses are evaluated over the distinct ids in ascending order; the
  // answers map back to the caller's order.
  std::vector<TupleId> query = ids;
  std::sort(query.begin(), query.end());
  query.erase(std::unique(query.begin(), query.end()), query.end());

  std::vector<double> best_accuracy(query.size(), -1.0);
  std::vector<ClassId> best_class(query.size(), default_class_);
  uint64_t pairs = 0;
  for (const Clause& clause : clauses_) {
    std::vector<uint8_t> flags = EvaluateClause(db, clause, query, &pairs);
    for (size_t i = 0; i < query.size(); ++i) {
      if (flags[i] && clause.accuracy > best_accuracy[i]) {
        best_accuracy[i] = clause.accuracy;
        best_class[i] = clause.predicted_class;
      }
    }
  }
  std::vector<ClassId> out;
  out.reserve(ids.size());
  uint64_t fallbacks = 0;
  for (TupleId id : ids) {
    size_t i = static_cast<size_t>(
        std::lower_bound(query.begin(), query.end(), id) - query.begin());
    out.push_back(best_class[i]);
    if (best_accuracy[i] < 0.0) ++fallbacks;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("predict.tuples")->Add(ids.size());
    metrics_->counter("predict.clauses_evaluated")
        ->Add(clauses_.size() * ids.size());
    metrics_->counter("predict.propagated_pairs")->Add(pairs);
    metrics_->counter("predict.default_fallbacks")->Add(fallbacks);
  }
  return out;
}

}  // namespace crossmine::baselines
