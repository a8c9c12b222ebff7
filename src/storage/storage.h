#ifndef CROSSMINE_STORAGE_STORAGE_H_
#define CROSSMINE_STORAGE_STORAGE_H_

#include <string>

#include "common/status.h"
#include "relational/csv.h"
#include "relational/database.h"
#include "storage/columnar.h"

namespace crossmine::storage {

/// \file
/// The single blessed entry point for database persistence. Every tool,
/// bench and test loads through `OpenDatabase`, which sniffs the on-disk
/// format; the CSV codec (`relational/csv.h`) and the `.cmdb` columnar codec
/// (`storage/columnar.h`) are implementation details behind it.

/// On-disk database formats understood by the facade.
enum class Format {
  kCsvDir,    ///< directory of schema.txt + per-relation CSVs
  kColumnar,  ///< single binary `.cmdb` file (mmap-backed)
};

/// Determines the format of `path`: a directory is a CSV dataset, a regular
/// file starting with the `.cmdb` header magic is columnar. NOT_FOUND when
/// `path` does not exist, INVALID_ARGUMENT for files of neither format.
StatusOr<Format> SniffFormat(const std::string& path);

struct OpenOptions {
  /// Verify the crc32 of every `.cmdb` data segment at open (one sequential
  /// pass over the file). Ignored for CSV, which is fully validated while
  /// parsing. Turn off to open databases larger than RAM lazily.
  bool verify_checksums = true;
};

/// Opens a database in either format. This is the only load entry point.
StatusOr<Database> OpenDatabase(const std::string& path,
                                const OpenOptions& options = {});

/// Saves `db`, choosing the format by `path`: names ending in `.cmdb` are
/// written columnar (one atomic file), anything else is written as a CSV
/// directory (created if absent).
Status SaveDatabase(const Database& db, const std::string& path);

}  // namespace crossmine::storage

#endif  // CROSSMINE_STORAGE_STORAGE_H_
