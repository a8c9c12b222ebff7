#ifndef CROSSMINE_CORE_MODEL_IO_H_
#define CROSSMINE_CORE_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "core/classifier.h"

namespace crossmine {

/// Serializes a trained CrossMine model to a line-oriented text format so
/// models can be trained once and shipped/deployed separately from the
/// training pipeline. The format references relations, attributes and join
/// edges by id, so a model must be loaded against the same database schema
/// it was trained on (`LoadModel` verifies a schema fingerprint).
///
/// Format (one directive per line, `#` comments allowed):
/// ```
///   crossmine-model 1
///   schema <fingerprint>
///   classes <n> default <cls>
///   clause <class> <accuracy> <sup_pos> <sup_neg> <build_pos> <build_neg>
///   literal <source_node> <edge...;> <constraint...>
///   end
/// ```
Status SaveModel(const CrossMineClassifier& model, const Database& db,
                 const std::string& path);

/// Loads a model saved by `SaveModel`. Fails if `path` is unreadable,
/// malformed, or was trained against a structurally different database.
StatusOr<CrossMineClassifier> LoadModel(const Database& db,
                                        const std::string& path);

/// The exact bytes `SaveModel` writes: the v2 model container — text payload
/// plus the mandatory `checksum <crc32> <payload-bytes>` trailer. Exposed so
/// callers can compare or hash model bytes without a file.
std::string SerializeModel(const CrossMineClassifier& model,
                           const Database& db);

/// Parses bytes produced by `SerializeModel` / read from a `SaveModel` file.
/// `origin` names the source in error messages (a path, usually). Verifies
/// the v2 checksum trailer (DATA_LOSS on any truncation or bit flip), the
/// schema fingerprint against `db`, and every structural invariant of the
/// clause list.
StatusOr<CrossMineClassifier> ParseModel(const Database& db,
                                         const std::string& contents,
                                         const std::string& origin);

/// Stable fingerprint of a database's schema and join graph (relations,
/// attribute names/kinds, edges) — changes whenever a saved model's ids
/// would no longer resolve to the same objects.
uint64_t SchemaFingerprint(const Database& db);

}  // namespace crossmine

#endif  // CROSSMINE_CORE_MODEL_IO_H_
