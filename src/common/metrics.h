#ifndef CROSSMINE_COMMON_METRICS_H_
#define CROSSMINE_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stopwatch.h"

namespace crossmine {

/// Lightweight observability substrate for the training / prediction
/// pipeline. Instrumented code holds a borrowed `MetricsRegistry*` that is
/// null by default, so an un-instrumented run costs one pointer test per
/// (coarse) event and never allocates. When a registry is attached, events
/// update atomic counters / timers, safe to bump from clause-search pool
/// workers; counting never feeds back into any search decision, so attaching
/// a registry cannot perturb the model being trained.
///
/// Key conventions (see DESIGN.md §"Observability layer"):
///  * dot-separated lowercase keys, `train.*` / `predict.*` prefixes;
///  * timer keys end in `_seconds` (accumulated task time — under a worker
///    pool this can exceed wall clock);
///  * everything else is a monotonic count.

/// A monotonically increasing count. `Add` is a relaxed atomic increment.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the value to `n` if it is currently lower — for high-water-mark
  /// counters such as `train.propagation.peak_id_bytes`.
  void MaxWith(uint64_t n) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < n && !value_.compare_exchange_weak(
                          cur, n, std::memory_order_relaxed)) {
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// An accumulated duration, stored in integer nanoseconds so concurrent
/// additions from pool workers stay exact and associative.
class Timer {
 public:
  void AddSeconds(double seconds) {
    if (seconds <= 0.0) return;
    ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                  std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  void Reset() { ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> ns_{0};
};

/// A snapshot: stable, sorted key → value map. Counters appear as integral
/// doubles, timers as seconds.
using MetricsSnapshot = std::map<std::string, double>;

/// Owns named counters and timers. `counter()` / `timer()` return pointers
/// that stay valid for the registry's lifetime, so hot paths resolve a key
/// once and afterwards pay only an atomic add. Key resolution takes a mutex;
/// the returned objects are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns (creating on first use) the counter registered under `key`.
  Counter* counter(const std::string& key);
  /// Returns (creating on first use) the timer registered under `key`.
  /// Timer keys should end in `_seconds`.
  Timer* timer(const std::string& key);

  /// Snapshot of every registered metric, sorted by key. Metrics that were
  /// registered but never bumped appear with value 0 — pre-registering a
  /// key ("touching") is how report producers guarantee a stable schema.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every value but keeps the registrations (and pointer validity).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// Adds the scope's wall time to `registry->timer(key)` on destruction.
/// Null-safe: with a null registry the destructor does nothing and the
/// constructor skips even the key lookup.
class ScopedMetricTimer {
 public:
  ScopedMetricTimer(MetricsRegistry* registry, const char* key)
      : timer_(registry == nullptr ? nullptr : registry->timer(key)) {}
  ScopedMetricTimer(const ScopedMetricTimer&) = delete;
  ScopedMetricTimer& operator=(const ScopedMetricTimer&) = delete;
  ~ScopedMetricTimer() {
    if (timer_ != nullptr) timer_->AddSeconds(watch_.ElapsedSeconds());
  }

 private:
  Timer* timer_;
  Stopwatch watch_;
};

/// Per-train observability report: the `train.*` slice of a registry
/// snapshot (phase timings, clauses per class, literals scored/accepted,
/// propagation cache traffic, sampling decisions, pool task counts).
struct TrainReport {
  MetricsSnapshot metrics;
  bool empty() const { return metrics.empty(); }
};

/// Per-predict observability report: the `predict.*` slice (clauses
/// evaluated, satisfied-clause histogram, default-class fallbacks).
struct PredictReport {
  MetricsSnapshot metrics;
  bool empty() const { return metrics.empty(); }
};

/// Sums `from` into `*into`, creating missing keys — the per-fold
/// aggregation primitive used by eval/cross_validation.
void MergeSnapshot(const MetricsSnapshot& from, MetricsSnapshot* into);

/// Renders `value` as a JSON number: integral values print without a
/// fraction, others with enough digits to round-trip a report.
std::string JsonNumber(double value);

/// Renders the snapshot as `"key":value` JSON fields (no surrounding
/// braces), sorted by key, ready to splice into a one-object-per-line
/// report in the bench/bench_json.h convention. Keys follow the naming
/// convention above and need no escaping.
std::string SnapshotJsonFields(const MetricsSnapshot& snapshot);

/// Renders the snapshot as indented `key  value` text lines.
std::string SnapshotText(const MetricsSnapshot& snapshot, int indent = 2);

/// Pre-registers the report keys every classifier emits, so the snapshot
/// schema is stable across classifiers and runs: the per-phase timers
/// (propagation, literal search, look-ahead, sampling, accuracy
/// re-estimation, physical joins — zero where a phase does not apply, which
/// is exactly how the paper's cost asymmetry shows up: CrossMine spends in
/// propagation where FOIL/TILDE spend in joins) and the propagation-cache
/// counters. Null-safe.
void TouchStandardTrainMetrics(MetricsRegistry* registry);

/// Counterpart of `TouchStandardTrainMetrics` for the predict side.
void TouchStandardPredictMetrics(MetricsRegistry* registry);

}  // namespace crossmine

#endif  // CROSSMINE_COMMON_METRICS_H_
