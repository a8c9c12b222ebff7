#ifndef CROSSMINE_COMMON_FAULTPOINT_H_
#define CROSSMINE_COMMON_FAULTPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace crossmine {

/// \file
/// Deterministic, seedless fault injection for syscall-shaped edges.
///
/// Every fallible I/O boundary (open/read/write/fsync/rename on the
/// persistence paths, accept/poll/send/read on the serving paths, plus the
/// admission and execution seams of the prediction server) declares a named
/// `FaultPoint` at file scope and consults it immediately before the real
/// operation. A disarmed point costs a single relaxed atomic load — the
/// substrate is compiled into release binaries and left in place.
///
/// A `FaultPlan` arms points by name: "fail the K-th hit of point P with
/// errno E", optionally for several consecutive hits, or inject a delay /
/// short-write cap instead of an error. Plans come from the `--fault-plan`
/// CLI flag, the `CROSSMINE_FAULT_PLAN` environment variable, or directly
/// from tests via `FaultRegistry::ApplyPlan`.
///
/// Plan grammar (entries separated by ';'):
/// ```
///   plan   := entry (';' entry)*
///   entry  := name ['@' hit] '=' action ['*' count]
///   action := ERRNO_NAME | errno_number | 'sleep:' millis | 'short:' bytes
/// ```
/// `hit` is 1-based and counted from the moment of arming (a disarmed point
/// does not count hits, which is what keeps the disarmed path to one atomic
/// load); `count` defaults to 1 and makes `count` consecutive hits fire.
/// Examples:
/// ```
///   model_io.save.rename@1=EIO          # first rename of a model save fails
///   csv.data.read@3=ENOSPC*2            # third and fourth data reads fail
///   model_io.save.rename@1=sleep:400    # hold the save open for kill tests
///   tcp.send@1=short:1*64               # 64 sends capped at 1 byte each
/// ```

/// One named injection site. Define at namespace scope in the .cc that owns
/// the call site; construction self-registers with the `FaultRegistry`, so
/// plans can arm every linked-in point by name and the fault-matrix test can
/// enumerate them.
class FaultPoint {
 public:
  /// What an armed hit injects. `err == 0 && byte_limit < 0` means "proceed
  /// normally" (also returned by delay-only actions, after sleeping).
  struct Action {
    int err = 0;            ///< errno to fail with; 0 = no error
    int64_t byte_limit = -1;  ///< short-op cap in bytes; -1 = none
  };

  /// `name` must be a string literal (the registry keeps the pointer).
  explicit FaultPoint(const char* name);

  FaultPoint(const FaultPoint&) = delete;
  FaultPoint& operator=(const FaultPoint&) = delete;

  const char* name() const { return name_; }

  /// True while an armed window is pending. The only cost a disarmed call
  /// site pays.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Error-only call sites: returns the injected errno for this hit, or 0.
  int Fire() {
    if (!armed()) return 0;
    return Consume().err;
  }

  /// Call sites that can also honor short-op injection (e.g. send(2)).
  Action FireAction() {
    if (!armed()) return Action{};
    return Consume();
  }

 private:
  friend class FaultRegistry;

  /// Slow path: counts the hit and resolves the armed spec. Disarms itself
  /// once the [hit, hit+count) window has passed.
  Action Consume();

  /// Installs a parsed spec (registry-internal; callers use ApplyPlan).
  void Arm(int64_t hit, int64_t count, int err, int64_t sleep_ms,
           int64_t byte_limit);
  void Disarm();

  const char* const name_;
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  // Armed spec + hit counter, guarded by mu_.
  int64_t hit_ = 0;
  int64_t count_ = 0;
  int err_ = 0;
  int64_t sleep_ms_ = 0;
  int64_t byte_limit_ = -1;
  int64_t hits_seen_ = 0;
};

/// Process-wide roster of fault points. Points register themselves during
/// static initialization of the translation units that define them, so the
/// roster holds exactly the points linked into the binary.
class FaultRegistry {
 public:
  static FaultRegistry& Instance();

  /// All registered point names, sorted. The fault-matrix test iterates
  /// this to prove every point has a covering arm-site.
  std::vector<std::string> Names() const;

  /// Lookup by name; nullptr when absent.
  FaultPoint* Find(const std::string& name) const;

  /// Parses and applies a full plan string (see grammar above). Unknown
  /// point names and malformed entries fail with INVALID_ARGUMENT naming
  /// the offending entry; earlier entries of the plan stay armed.
  Status ApplyPlan(const std::string& plan);

  /// Applies `CROSSMINE_FAULT_PLAN` if set; OK when the variable is absent.
  Status ApplyPlanFromEnv();

  /// Disarms every point and resets hit counters (test isolation).
  void DisarmAll();

 private:
  friend class FaultPoint;
  FaultRegistry() = default;
  void Register(FaultPoint* point);

  mutable std::mutex mu_;
  std::vector<FaultPoint*> points_;  // guarded by mu_
};

}  // namespace crossmine

#endif  // CROSSMINE_COMMON_FAULTPOINT_H_
