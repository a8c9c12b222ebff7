#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace crossmine {

Counter* MetricsRegistry::counter(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[key];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Timer* MetricsRegistry::timer(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Timer>& slot = timers_[key];
  if (slot == nullptr) slot = std::make_unique<Timer>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [key, counter] : counters_) {
    snapshot[key] = static_cast<double>(counter->value());
  }
  for (const auto& [key, timer] : timers_) {
    snapshot[key] = timer->seconds();
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, counter] : counters_) counter->Reset();
  for (auto& [key, timer] : timers_) timer->Reset();
}

void MergeSnapshot(const MetricsSnapshot& from, MetricsSnapshot* into) {
  for (const auto& [key, value] : from) (*into)[key] += value;
}

void AbsorbSnapshot(const MetricsSnapshot& from, MetricsRegistry* into) {
  static constexpr char kTimerSuffix[] = "_seconds";
  static constexpr size_t kTimerSuffixLen = sizeof(kTimerSuffix) - 1;
  for (const auto& [key, value] : from) {
    bool is_timer = key.size() >= kTimerSuffixLen &&
                    key.compare(key.size() - kTimerSuffixLen, kTimerSuffixLen,
                                kTimerSuffix) == 0;
    if (is_timer) {
      into->timer(key)->AddSeconds(value);
    } else {
      into->counter(key)->Add(
          static_cast<uint64_t>(std::llround(std::max(0.0, value))));
    }
  }
}

std::string JsonNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  if (!std::isfinite(value)) return "null";  // keep the line parseable
  return StrFormat("%.9g", value);
}

std::string SnapshotJsonFields(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [key, value] : snapshot) {
    if (!out.empty()) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += JsonNumber(value);
  }
  return out;
}

std::string SnapshotText(const MetricsSnapshot& snapshot, int indent) {
  size_t width = 0;
  for (const auto& [key, value] : snapshot) width = std::max(width, key.size());
  std::string out;
  for (const auto& [key, value] : snapshot) {
    out.append(static_cast<size_t>(indent), ' ');
    out += key;
    out.append(width - key.size() + 2, ' ');
    out += JsonNumber(value);
    out += '\n';
  }
  return out;
}

void TouchStandardTrainMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->timer("train.wall_seconds");
  registry->timer("train.phase.propagation_seconds");
  registry->timer("train.phase.literal_search_seconds");
  registry->timer("train.phase.lookahead_seconds");
  registry->timer("train.phase.sampling_seconds");
  registry->timer("train.phase.reestimation_seconds");
  registry->timer("train.phase.join_seconds");
  registry->counter("train.propagation.cache_hits");
  registry->counter("train.propagation.cache_refreshes");
  registry->counter("train.propagation.cache_misses");
  registry->counter("train.propagation.peak_id_bytes");
  registry->counter("train.propagation.pairs");
  registry->counter("train.clauses_built");
  registry->counter("train.literals_scored");
  registry->counter("train.literals_accepted");
  registry->timer("train.index.build_seconds");
  registry->counter("train.index.bytes");
  registry->counter("train.index.peak_bytes");
  registry->counter("train.index.evictions");
  registry->counter("train.index.rebuilds");
  registry->counter("train.index.budget_bytes");
  registry->counter("storage.column.materializations");
}

void TouchStandardPredictMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->timer("predict.wall_seconds");
  registry->counter("predict.tuples");
  registry->counter("predict.clauses_evaluated");
  registry->counter("predict.propagated_pairs");
  registry->counter("predict.default_fallbacks");
}

}  // namespace crossmine
