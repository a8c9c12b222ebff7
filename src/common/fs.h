#ifndef CROSSMINE_COMMON_FS_H_
#define CROSSMINE_COMMON_FS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/faultpoint.h"
#include "common/status.h"

namespace crossmine {

/// \file
/// Fault-injectable file I/O shared by the persistence paths (model files,
/// CSV datasets). All functions are Status-clean: no byte pattern on disk
/// and no syscall failure can abort the process.

/// Fault points consulted by `ReadFileToString`, one per syscall edge.
/// Callers define their own named points so a plan can target exactly one
/// loader (e.g. `model_io.load.read` vs `csv.data.read`).
struct ReadFaultPoints {
  FaultPoint* open = nullptr;
  FaultPoint* read = nullptr;
};

/// Reads an entire file. IoError (with errno text) on open/read failure.
StatusOr<std::string> ReadFileToString(const std::string& path,
                                       const ReadFaultPoints& faults = {});

/// Fault points consulted by `AtomicWriteFile`, one per syscall edge.
struct WriteFaultPoints {
  FaultPoint* open = nullptr;
  FaultPoint* write = nullptr;
  FaultPoint* fsync = nullptr;
  FaultPoint* rename = nullptr;
};

/// Crash-safe whole-file write: writes `contents` to `path + ".tmp.<pid>"`,
/// fsyncs, then renames over `path`. On any failure the temp file is
/// unlinked and the previous `path` contents are untouched — a reader can
/// never observe a torn file, and kill -9 at any instant leaves either the
/// old bytes or the new bytes, never a mixture.
Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       const WriteFaultPoints& faults = {});

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`. Used as the
/// content checksum of saved model files and of every `.cmdb` segment. On
/// x86-64 CPUs with PCLMULQDQ (checked at run time) it folds with
/// carry-less multiplies; elsewhere it runs a slicing-by-8 table loop. Both
/// compute the same value.
uint32_t Crc32(std::string_view data);

}  // namespace crossmine

#endif  // CROSSMINE_COMMON_FS_H_
