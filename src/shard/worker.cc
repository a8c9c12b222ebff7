#include "shard/worker.h"

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/faultpoint.h"
#include "common/fs.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "relational/database.h"
#include "storage/storage.h"

namespace crossmine::shard {

namespace {

// The worker's checkpoint-write edges. These fire inside the worker
// process; the supervisor arms them in a chosen (shard, attempt) via the
// CROSSMINE_FAULT_PLAN environment entry of that child.
FaultPoint fp_ckpt_write("shard.checkpoint.write");
FaultPoint fp_ckpt_fsync("shard.checkpoint.fsync");
FaultPoint fp_ckpt_rename("shard.checkpoint.rename");

int UsageError(const char* why) {
  std::fprintf(stderr,
               "train-shard: %s\nusage: crossmine train-shard <slice> "
               "<checkpoint> --expect-fingerprint F [--wopt-* ...]\n",
               why);
  return 2;
}

}  // namespace

std::vector<std::string> WorkerOptionArgs(const CrossMineOptions& o) {
  std::vector<std::string> args;
  auto add = [&args](const char* key, std::string value) {
    args.push_back(key);
    args.push_back(std::move(value));
  };
  auto flag = [](bool v) { return std::string(v ? "1" : "0"); };
  add("--wopt-min-gain", StrFormat("%.17g", o.min_foil_gain));
  add("--wopt-max-clause-length", StrFormat("%d", o.max_clause_length));
  add("--wopt-min-pos-fraction-left",
      StrFormat("%.17g", o.min_pos_fraction_left));
  add("--wopt-max-clauses-per-class",
      StrFormat("%d", o.max_clauses_per_class));
  add("--wopt-numerical", flag(o.use_numerical_literals));
  add("--wopt-aggregations", flag(o.use_aggregation_literals));
  add("--wopt-lookahead", flag(o.look_one_ahead));
  add("--wopt-sampling", flag(o.use_sampling));
  add("--wopt-neg-pos-ratio", StrFormat("%.17g", o.neg_pos_ratio));
  add("--wopt-max-negative", StrFormat("%u", o.max_num_negative));
  add("--wopt-reestimate", flag(o.reestimate_accuracy_on_training_set));
  add("--wopt-max-avg-fanout",
      StrFormat("%.17g", o.propagation_limits.max_avg_fanout));
  add("--wopt-max-total-ids",
      StrFormat("%llu", static_cast<unsigned long long>(
                            o.propagation_limits.max_total_ids)));
  add("--wopt-threads", StrFormat("%d", o.num_threads));
  add("--wopt-prop-cache-slots",
      StrFormat("%llu",
                static_cast<unsigned long long>(o.propagation_cache_slots)));
  add("--wopt-seed",
      StrFormat("%llu", static_cast<unsigned long long>(o.seed)));
  return args;
}

int TrainShardMain(int argc, char** argv) {
  // A worker's stdout/stderr may be a pipe the supervisor's caller already
  // closed; losing a log line must not kill a training run mid-checkpoint.
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> positional;
  CrossMineOptions opts;
  opts.num_shards = 1;  // a worker is exactly one shard
  uint64_t expect_fp = 0;
  bool have_fp = false;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(std::move(arg));
      continue;
    }
    if (i + 1 >= argc) return UsageError("flag missing its value");
    std::string value = argv[++i];
    int64_t iv = 0;
    double dv = 0.0;
    bool is_int = ParseInt64(value, &iv);
    bool is_double = ParseDouble(value, &dv);
    auto want_int = [&](const char* flag_name) {
      if (!is_int) {
        std::fprintf(stderr, "train-shard: bad integer for %s: %s\n",
                     flag_name, value.c_str());
      }
      return is_int;
    };
    auto want_double = [&](const char* flag_name) {
      if (!is_double) {
        std::fprintf(stderr, "train-shard: bad number for %s: %s\n",
                     flag_name, value.c_str());
      }
      return is_double;
    };
    if (arg == "--expect-fingerprint") {
      // Fingerprints use the full uint64 range; parse unsigned.
      char* end = nullptr;
      expect_fp = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return UsageError("bad --expect-fingerprint");
      }
      have_fp = true;
    } else if (arg == "--memory-budget-mb" || arg == "--fault-plan") {
      // Handled globally in main() before dispatch; skip here.
    } else if (arg == "--wopt-min-gain") {
      if (!want_double(arg.c_str())) return 2;
      opts.min_foil_gain = dv;
    } else if (arg == "--wopt-max-clause-length") {
      if (!want_int(arg.c_str())) return 2;
      opts.max_clause_length = static_cast<int>(iv);
    } else if (arg == "--wopt-min-pos-fraction-left") {
      if (!want_double(arg.c_str())) return 2;
      opts.min_pos_fraction_left = dv;
    } else if (arg == "--wopt-max-clauses-per-class") {
      if (!want_int(arg.c_str())) return 2;
      opts.max_clauses_per_class = static_cast<int>(iv);
    } else if (arg == "--wopt-numerical") {
      if (!want_int(arg.c_str())) return 2;
      opts.use_numerical_literals = iv != 0;
    } else if (arg == "--wopt-aggregations") {
      if (!want_int(arg.c_str())) return 2;
      opts.use_aggregation_literals = iv != 0;
    } else if (arg == "--wopt-lookahead") {
      if (!want_int(arg.c_str())) return 2;
      opts.look_one_ahead = iv != 0;
    } else if (arg == "--wopt-sampling") {
      if (!want_int(arg.c_str())) return 2;
      opts.use_sampling = iv != 0;
    } else if (arg == "--wopt-neg-pos-ratio") {
      if (!want_double(arg.c_str())) return 2;
      opts.neg_pos_ratio = dv;
    } else if (arg == "--wopt-max-negative") {
      if (!want_int(arg.c_str())) return 2;
      opts.max_num_negative = static_cast<uint32_t>(iv);
    } else if (arg == "--wopt-reestimate") {
      if (!want_int(arg.c_str())) return 2;
      opts.reestimate_accuracy_on_training_set = iv != 0;
    } else if (arg == "--wopt-max-avg-fanout") {
      if (!want_double(arg.c_str())) return 2;
      opts.propagation_limits.max_avg_fanout = dv;
    } else if (arg == "--wopt-max-total-ids") {
      if (!want_int(arg.c_str())) return 2;
      opts.propagation_limits.max_total_ids = static_cast<uint64_t>(iv);
    } else if (arg == "--wopt-threads") {
      if (!want_int(arg.c_str())) return 2;
      opts.num_threads = static_cast<int>(iv);
    } else if (arg == "--wopt-prop-cache-slots") {
      if (!want_int(arg.c_str())) return 2;
      opts.propagation_cache_slots = static_cast<uint64_t>(iv);
    } else if (arg == "--wopt-seed") {
      if (!want_int(arg.c_str())) return 2;
      opts.seed = static_cast<uint64_t>(iv);
    } else {
      return UsageError(("unknown flag " + arg).c_str());
    }
  }
  if (positional.size() != 2) {
    return UsageError("want exactly <slice> and <checkpoint>");
  }
  if (!have_fp) return UsageError("--expect-fingerprint is required");

  StatusOr<Database> db = storage::OpenDatabase(positional[0]);
  if (!db.ok()) {
    std::fprintf(stderr, "train-shard: open %s: %s\n", positional[0].c_str(),
                 db.status().ToString().c_str());
    return 1;
  }
  // The slice must be the schema the supervisor partitioned: a mismatch
  // means the run directory holds a different database's slice, and no
  // retry can fix that — exit 4 tells the supervisor to fail the shard
  // permanently instead of burning attempts.
  if (SchemaFingerprint(*db) != expect_fp) {
    std::fprintf(stderr,
                 "train-shard: slice %s schema fingerprint %llu does not "
                 "match expected %llu\n",
                 positional[0].c_str(),
                 static_cast<unsigned long long>(SchemaFingerprint(*db)),
                 static_cast<unsigned long long>(expect_fp));
    return 4;
  }

  std::vector<TupleId> all;
  for (TupleId t = 0; t < db->target_relation().num_tuples(); ++t) {
    all.push_back(t);
  }
  CrossMineClassifier model(opts);
  Status st = model.Train(*db, all);
  if (!st.ok()) {
    std::fprintf(stderr, "train-shard: train: %s\n", st.ToString().c_str());
    return 1;
  }

  WriteFaultPoints write_faults;
  write_faults.open = &fp_ckpt_write;
  write_faults.write = &fp_ckpt_write;
  write_faults.fsync = &fp_ckpt_fsync;
  write_faults.rename = &fp_ckpt_rename;
  st = AtomicWriteFile(positional[1], SerializeModel(model, *db),
                       write_faults);
  if (!st.ok()) {
    std::fprintf(stderr, "train-shard: checkpoint %s: %s\n",
                 positional[1].c_str(), st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace crossmine::shard
