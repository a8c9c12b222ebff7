#include "shard/sharded_trainer.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/clause_eval.h"
#include "core/foil_gain.h"
#include "core/model_io.h"

namespace crossmine::shard {

namespace {

/// Pre-registers the subsystem's report keys so `--report json` has a
/// stable schema whether or not sharding did any work. Null-safe.
void TouchShardMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->counter("train.shard.count");
  metrics->counter("train.shard.clauses_in");
  metrics->counter("train.shard.clauses_kept");
  metrics->timer("train.shard.partition_seconds");
  metrics->timer("train.shard.train_seconds");
  metrics->timer("train.shard.merge_seconds");
}

/// One shard worker's output: the trained model, its private metrics sink,
/// and the training status. Heap-held — MetricsRegistry is pinned.
struct ShardSlot {
  explicit ShardSlot(const CrossMineOptions& options) : model(options) {}
  CrossMineClassifier model;
  MetricsRegistry metrics;
  Status status = Status::OK();
};

}  // namespace

Status ShardedClassifier::Train(const Database& db,
                                const std::vector<TupleId>& train_ids) {
  if (!db.finalized()) {
    return Status::FailedPrecondition("database not finalized");
  }
  if (train_ids.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  TupleId num_targets = db.target_relation().num_tuples();
  for (TupleId id : train_ids) {
    if (id >= num_targets) {
      return Status::OutOfRange("train id beyond target relation");
    }
  }
  int num_shards =
      shard_options_.num_shards > 0 ? shard_options_.num_shards
                                    : base_.num_shards;
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }

  trained_fingerprint_ = 0;
  merged_ = CrossMineClassifier(base_);
  stats_ = {};
  stats_.num_shards = num_shards;
  num_classes_ = db.num_classes();

  ScopedMetricTimer wall(metrics_, "train.wall_seconds");
  TouchShardMetrics(metrics_);
  if (metrics_ != nullptr) {
    metrics_->counter("train.shard.count")->Add(num_shards);
  }

  std::vector<uint8_t> in_train(num_targets, 0);
  for (TupleId id : train_ids) in_train[id] = 1;

  // Default class = training majority (same tie-break as the base trainer:
  // the lowest class id among the most frequent).
  std::vector<uint32_t> class_count(static_cast<size_t>(num_classes_), 0);
  for (TupleId id : train_ids) {
    if (in_train[id]) ++class_count[static_cast<size_t>(db.labels()[id])];
  }
  default_class_ = static_cast<ClassId>(
      std::max_element(class_count.begin(), class_count.end()) -
      class_count.begin());

  // --- Partition -----------------------------------------------------------
  std::vector<Shard> shards;
  {
    ScopedMetricTimer partition_timer(metrics_, "train.shard.partition_seconds");
    StatusOr<std::vector<Shard>> parts =
        PartitionDatabase(db, train_ids, num_shards);
    if (!parts.ok()) return parts.status();
    shards = std::move(*parts);
  }
  std::vector<int> active;
  for (int s = 0; s < num_shards; ++s) {
    if (!shards[static_cast<size_t>(s)].parent_ids.empty()) active.push_back(s);
  }
  stats_.active_shards = static_cast<int>(active.size());

  // --- Per-shard Find-Clauses ---------------------------------------------
  // Split the thread budget: min(active, total) shard workers run
  // concurrently, each training with its own inner pool of the remaining
  // lanes. Scheduling never reaches the model: shards train independently
  // and the merge visits them by index.
  int total_threads = ThreadPool::Resolve(base_.num_threads);
  int outer = std::max(1, std::min<int>(static_cast<int>(active.size()),
                                        total_threads));
  int inner = std::max(1, total_threads / outer);

  CrossMineOptions shard_opts = base_;
  shard_opts.num_shards = 1;
  shard_opts.num_threads = inner;
  // The merge re-scores every kept clause on the parent database, which
  // *is* the §5.3 re-estimation pass — running it per shard too would only
  // burn time and (at one shard) double-apply it.
  shard_opts.reestimate_accuracy_on_training_set = false;

  std::vector<std::unique_ptr<ShardSlot>> slots;
  slots.reserve(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    slots.push_back(std::make_unique<ShardSlot>(shard_opts));
  }
  auto train_one = [&](size_t slot_index) {
    ShardSlot& slot = *slots[slot_index];
    const Shard& shard = shards[static_cast<size_t>(active[slot_index])];
    std::vector<TupleId> ids(shard.parent_ids.size());
    for (TupleId t = 0; t < ids.size(); ++t) ids[t] = t;
    if (metrics_ != nullptr) slot.model.set_metrics(&slot.metrics);
    slot.status = slot.model.Train(shard.db, ids);
    slot.model.set_metrics(nullptr);
  };
  if (outer > 1) {
    ThreadPool pool(outer);
    std::vector<std::function<void(int)>> tasks;
    tasks.reserve(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      tasks.push_back([&train_one, i](int) { train_one(i); });
    }
    pool.RunTasks(tasks);
  } else {
    for (size_t i = 0; i < active.size(); ++i) train_one(i);
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i]->status.ok()) {
      return Status::Internal(StrFormat("shard %d train failed: %s", active[i],
                                        slots[i]->status.ToString().c_str()));
    }
  }
  if (metrics_ != nullptr) {
    for (const std::unique_ptr<ShardSlot>& slot : slots) {
      MetricsSnapshot snap = slot->metrics.Snapshot();
      // A shard's wall clock is concurrent with its siblings'; keep it out
      // of the trainer's own `train.wall_seconds` and account it as
      // accumulated per-shard train time instead (timer convention).
      auto it = snap.find("train.wall_seconds");
      if (it != snap.end()) {
        snap["train.shard.train_seconds"] += it->second;
        snap.erase(it);
      }
      AbsorbSnapshot(snap, metrics_);
    }
  }
  for (const std::unique_ptr<ShardSlot>& slot : slots) {
    stats_.clauses_in += slot->model.clauses().size();
  }
  if (metrics_ != nullptr) {
    metrics_->counter("train.shard.clauses_in")->Add(stats_.clauses_in);
  }

  // --- Merge ---------------------------------------------------------------
  ScopedMetricTimer merge_timer(metrics_, "train.shard.merge_seconds");

  // Scoring population: the full training set by default; a deterministic
  // seed-derived sample when merge_sample asks for one. Support counts are
  // scaled back by the sampling ratio.
  std::vector<uint8_t> score_mask = in_train;
  double scale = 1.0;
  uint64_t train_size = 0;
  for (TupleId t = 0; t < num_targets; ++t) train_size += in_train[t];
  if (shard_options_.merge_sample > 0 &&
      shard_options_.merge_sample < train_size) {
    std::vector<TupleId> ordered;
    ordered.reserve(train_size);
    for (TupleId t = 0; t < num_targets; ++t) {
      if (in_train[t]) ordered.push_back(t);
    }
    Rng rng(base_.seed);
    std::vector<uint32_t> pick = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(ordered.size()),
        static_cast<uint32_t>(shard_options_.merge_sample));
    score_mask.assign(num_targets, 0);
    for (uint32_t i : pick) score_mask[ordered[i]] = 1;
    scale = static_cast<double>(train_size) /
            static_cast<double>(shard_options_.merge_sample);
  }

  // Deterministic covering replay: candidates in (class, shard index,
  // built order); a candidate is kept iff the covering loop would still be
  // running (uncovered positives above the Algorithm-1 floor, per-class
  // clause cap unreached) and it covers at least one uncovered positive.
  // With one shard this replays the shard's own build decisions exactly —
  // every clause re-covers precisely the positives its builder removed —
  // so the merge at K=1 is byte-identical to unsharded training.
  std::vector<TupleId> score_ids;  // score_mask as an ascending id list
  for (TupleId t = 0; t < num_targets; ++t) {
    if (score_mask[t]) score_ids.push_back(t);
  }
  std::vector<Clause> merged_clauses;
  for (ClassId cls = 0; cls < num_classes_; ++cls) {
    // Parallel to score_ids: still-uncovered positives of `cls`.
    std::vector<uint8_t> uncovered(score_ids.size(), 0);
    size_t uncovered_count = 0;
    for (size_t i = 0; i < score_ids.size(); ++i) {
      if (db.labels()[score_ids[i]] == cls) {
        uncovered[i] = 1;
        ++uncovered_count;
      }
    }
    size_t initial = uncovered_count;
    int kept = 0;
    bool open = initial > 0;
    for (size_t s = 0; open && s < slots.size(); ++s) {
      for (const Clause& clause : slots[s]->model.clauses()) {
        if (clause.predicted_class != cls) continue;
        if (static_cast<double>(uncovered_count) <=
                base_.min_pos_fraction_left * static_cast<double>(initial) ||
            kept >= base_.max_clauses_per_class) {
          open = false;
          break;
        }
        std::vector<uint8_t> flags = EvaluateClause(db, clause, score_ids);
        uint32_t newly = 0;
        for (size_t i = 0; i < score_ids.size(); ++i) {
          if (uncovered[i] && flags[i]) ++newly;
        }
        if (newly == 0) continue;  // redundant across shards — drop
        Clause out = clause;
        if (base_.reestimate_accuracy_on_training_set) {
          uint64_t sup_pos = 0, sup_neg = 0;
          for (size_t i = 0; i < score_ids.size(); ++i) {
            if (!flags[i]) continue;
            if (db.labels()[score_ids[i]] == cls) {
              ++sup_pos;
            } else {
              ++sup_neg;
            }
          }
          out.sup_pos = static_cast<double>(sup_pos) * scale;
          out.sup_neg = static_cast<double>(sup_neg) * scale;
          out.accuracy = LaplaceAccuracy(out.sup_pos, out.sup_neg,
                                         num_classes_);
        }
        for (size_t i = 0; i < score_ids.size(); ++i) {
          if (uncovered[i] && flags[i]) {
            uncovered[i] = 0;
            --uncovered_count;
          }
        }
        merged_clauses.push_back(std::move(out));
        ++kept;
      }
    }
  }
  stats_.clauses_kept = merged_clauses.size();
  if (metrics_ != nullptr) {
    metrics_->counter("train.shard.clauses_kept")->Add(stats_.clauses_kept);
  }
  merged_.RestoreModel(std::move(merged_clauses), default_class_, num_classes_,
                       SchemaFingerprint(db));
  trained_fingerprint_ = SchemaFingerprint(db);
  return Status::OK();
}

std::vector<ClassId> ShardedClassifier::Predict(
    const Database& db, const std::vector<TupleId>& ids) const {
  // Forward the registry attached to *this* so `predict.*` metrics land
  // where the caller (CLI / CrossValidate) is looking. Swapping the
  // delegate's pointer is why Predict must not race set_metrics — see the
  // header note.
  CrossMineClassifier& delegate = const_cast<CrossMineClassifier&>(merged_);
  delegate.set_metrics(metrics_);
  std::vector<ClassId> out = delegate.Predict(db, ids);
  delegate.set_metrics(nullptr);
  return out;
}

}  // namespace crossmine::shard
