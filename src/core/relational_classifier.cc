#include "core/relational_classifier.h"

#include "common/string_util.h"
#include "core/model_io.h"

namespace crossmine {

Status RelationalClassifier::ValidateForPredict(const Database& db) const {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database not finalized");
  }
  if (trained_fingerprint_ == 0) {
    return Status::FailedPrecondition(
        StrFormat("%s model is untrained: call Train or LoadModel first",
                  name()));
  }
  uint64_t fingerprint = SchemaFingerprint(db);
  if (fingerprint != trained_fingerprint_) {
    return Status::FailedPrecondition(StrFormat(
        "%s model was trained against a different database: schema "
        "fingerprint %llu != %llu (same relations, attributes and join "
        "edges are required)",
        name(), static_cast<unsigned long long>(trained_fingerprint_),
        static_cast<unsigned long long>(fingerprint)));
  }
  return Status::OK();
}

StatusOr<std::vector<ClassId>> RelationalClassifier::PredictBatchChecked(
    const Database& db, const std::vector<TupleId>& ids) const {
  CM_RETURN_IF_ERROR(ValidateForPredict(db));
  TupleId num_targets = db.target_relation().num_tuples();
  for (TupleId id : ids) {
    if (id >= num_targets) {
      return Status::OutOfRange(
          StrFormat("tuple id %u beyond target relation (%u tuples)", id,
                    num_targets));
    }
  }
  return Predict(db, ids);
}

}  // namespace crossmine
