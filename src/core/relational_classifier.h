#ifndef CROSSMINE_CORE_RELATIONAL_CLASSIFIER_H_
#define CROSSMINE_CORE_RELATIONAL_CLASSIFIER_H_

#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "relational/database.h"

namespace crossmine {

/// Abstract multi-relational classifier interface. CrossMine and the FOIL /
/// TILDE baselines all implement it, so the evaluation harness and the
/// experiment benches can drive them interchangeably.
class RelationalClassifier {
 public:
  virtual ~RelationalClassifier() = default;

  /// Learns a model from the target tuples in `train_ids`. Implementations
  /// must not read labels of tuples outside `train_ids`, and must record the
  /// training database's schema fingerprint (see `PredictBatchChecked`).
  virtual Status Train(const Database& db,
                       const std::vector<TupleId>& train_ids) = 0;

  /// Predicts class labels for `ids` (order-preserving). Requires a trained
  /// model and a database structurally identical to the training one —
  /// violations are undefined behavior. Prefer `PredictBatchChecked`
  /// anywhere the model and the database arrive from independent sources
  /// (CLI, serving).
  virtual std::vector<ClassId> Predict(
      const Database& db, const std::vector<TupleId>& ids) const = 0;

  /// Checks that this model can predict against `db` at all: the database
  /// is finalized, the model is trained (or loaded), and `db`'s schema
  /// fingerprint matches the training database's. This is the per-pairing
  /// half of `PredictBatchChecked`'s validation — long-lived callers (the
  /// prediction server) run it once at model-registration time and then
  /// only pay the cheap per-id bounds check per request.
  Status ValidateForPredict(const Database& db) const;

  /// Validating predict: fails with a descriptive Status — instead of
  /// silently misclassifying or indexing out of range — when the model was
  /// never trained or loaded, when `db`'s schema fingerprint differs from
  /// the training database's (a model predicted against the wrong
  /// database), or when an id is beyond the target relation. It validates
  /// (`ValidateForPredict`) once for the whole batch and makes a single
  /// bounds pass over `ids`, then predicts all ids in one `Predict` call.
  /// The CLI, the serving path and `CrossValidate` all predict through it.
  StatusOr<std::vector<ClassId>> PredictBatchChecked(
      const Database& db, const std::vector<TupleId>& ids) const;

  /// Attaches a borrowed metrics registry; training and prediction record
  /// `train.*` / `predict.*` metrics into it (see common/metrics.h). Null
  /// (the default) disables instrumentation at near-zero cost. The registry
  /// must outlive every instrumented call; instrumentation never alters
  /// what is learned or predicted.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() const { return metrics_; }

  /// Short human-readable name for reports ("CrossMine", "FOIL", ...).
  virtual const char* name() const = 0;

 protected:
  /// Schema fingerprint (core/model_io.h) of the database the model was
  /// trained on or loaded against; 0 while untrained. Implementations set
  /// this on every successful `Train`.
  uint64_t trained_fingerprint_ = 0;
  /// Borrowed observability sink; null when instrumentation is off.
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace crossmine

#endif  // CROSSMINE_CORE_RELATIONAL_CLASSIFIER_H_
