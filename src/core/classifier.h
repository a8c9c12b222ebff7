#ifndef CROSSMINE_CORE_CLASSIFIER_H_
#define CROSSMINE_CORE_CLASSIFIER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/literal.h"
#include "core/options.h"
#include "core/relational_classifier.h"
#include "relational/database.h"

namespace crossmine {

class ThreadPool;

/// The CrossMine multi-relational classifier (the paper's primary
/// contribution). Learns a set of clauses from a finalized `Database` via
/// sequential covering over tuple ID propagation, then classifies target
/// tuples with the most accurate clause they satisfy.
///
/// ```
///   CrossMineClassifier model;                 // default paper parameters
///   CM_CHECK(model.Train(db, train_ids).ok());
///   std::vector<ClassId> pred = model.Predict(db, test_ids);
/// ```
///
/// Multi-class databases are handled one-vs-rest (§5.3): clauses are learned
/// for every class, and prediction picks the most accurate satisfied clause
/// across all classes; tuples satisfying no clause get the training
/// majority class.
///
/// `Predict` must be called with the same database (or a structurally
/// identical one — clauses reference relations, attributes and join edges by
/// id). Train/test splits are expressed as subsets of target tuple ids.
class CrossMineClassifier : public RelationalClassifier {
 public:
  explicit CrossMineClassifier(CrossMineOptions options = {})
      : options_(options) {}

  const CrossMineOptions& options() const { return options_; }

  /// Switches how clauses combine at prediction time. Safe after training
  /// or loading: the clause set is mode-independent.
  void set_prediction_mode(PredictionMode mode) {
    options_.prediction_mode = mode;
  }

  /// Learns clauses from the target tuples listed in `train_ids`. Labels of
  /// tuples outside `train_ids` are never read. Clears any previous model.
  Status Train(const Database& db,
               const std::vector<TupleId>& train_ids) override;

  /// Predicts class labels for `ids` (order-preserving).
  std::vector<ClassId> Predict(const Database& db,
                               const std::vector<TupleId>& ids) const override;

  const char* name() const override { return "CrossMine"; }

  /// Why a tuple was classified the way it was.
  struct Explanation {
    ClassId predicted = 0;
    /// The deciding clause (index into `clauses()`), or -1 when the tuple
    /// satisfied no clause and got the default class. Under kWeightedVote,
    /// the highest-weight satisfied clause of the winning class.
    int clause_index = -1;
    /// Indices of every satisfied clause, in model order.
    std::vector<int> satisfied;
  };

  /// Explains the prediction for one target tuple.
  Explanation Explain(const Database& db, TupleId id) const;

  /// The learned clauses, in the order they were built.
  const std::vector<Clause>& clauses() const { return clauses_; }

  /// Class predicted when no clause fires (training majority class).
  ClassId default_class() const { return default_class_; }

  /// Multi-line human-readable dump of the model.
  std::string ToString(const Database& db) const;

 private:
  /// Replaces the learned state wholesale — the deserialization hook for
  /// `LoadModel` (core/model_io.h), which is the only restore path and
  /// validates every clause's relation / attribute / edge id against the
  /// database before calling this. `fingerprint` is the schema fingerprint
  /// of that database, enforced again by `PredictBatchChecked`.
  void RestoreModel(std::vector<Clause> clauses, ClassId default_class,
                    int num_classes, uint64_t fingerprint) {
    clauses_ = std::move(clauses);
    default_class_ = default_class;
    num_classes_ = num_classes;
    trained_fingerprint_ = fingerprint;
  }
  friend StatusOr<CrossMineClassifier> LoadModel(const Database& db,
                                                 const std::string& path);
  /// `ParseModel` is `LoadModel` minus the file read — the same validated
  /// restore path.
  friend StatusOr<CrossMineClassifier> ParseModel(const Database& db,
                                                  const std::string& contents,
                                                  const std::string& origin);

  /// The indices (model order) of the clauses each entry of `query`
  /// (sorted, distinct) satisfies. With `first_only` an entry leaves the
  /// evaluation at its first satisfied clause — all the decision list needs.
  std::vector<std::vector<int>> SatisfiedClauses(
      const Database& db, const std::vector<TupleId>& query, bool first_only,
      uint64_t* propagated_pairs) const;

  /// The prediction-mode combine step `Predict` and `Explain` share: the
  /// class and deciding clause for one tuple's satisfied clauses (taken as
  /// `Explanation::satisfied`).
  Explanation Combine(std::vector<int> satisfied) const;

  void TrainOneClass(const Database& db, ClassId cls,
                     const std::vector<uint8_t>& positive,
                     const std::vector<uint8_t>& in_train, uint64_t seed,
                     ThreadPool* pool);

  CrossMineOptions options_;
  std::vector<Clause> clauses_;
  ClassId default_class_ = 0;
  int num_classes_ = 0;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_CLASSIFIER_H_
