// Process-isolated shard training tests: the supervising coordinator's
// failure model, end to end against the real `crossmine train-shard` worker
// binary. Crashed workers are retried, hung workers are SIGKILLed and
// retried, corrupt checkpoints are rejected as DATA_LOSS and rebuilt,
// quorum forgives permanently failing shards, resume reuses durable
// checkpoints after supervisor death — and on every path the final model is
// byte-identical to in-process sharded training, with no zombie left
// behind.

#include <gtest/gtest.h>

#include <errno.h>
#include <sys/wait.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faultpoint.h"
#include "common/metrics.h"
#include "common/shutdown.h"
#include "common/status.h"
#include "common/subprocess.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "shard/partition.h"
#include "shard/sharded_trainer.h"
#include "shard/supervisor.h"
#include "shard/worker.h"
#include "storage/storage.h"

namespace crossmine {
namespace {

std::string CliPath() { return CROSSMINE_CLI_PATH; }

Database MakeDb(uint64_t seed = 11, int relations = 5, int tuples = 150) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = relations;
  cfg.expected_tuples = tuples;
  cfg.seed = seed;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

/// A fresh run directory under the test temp root.
std::string FreshRunDir(const char* tag) {
  std::string dir = ::testing::TempDir() + "/shard_proc_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

CrossMineOptions BaseOptions() {
  CrossMineOptions o;
  o.num_threads = 2;
  return o;
}

/// Process-exec shard options against the real CLI worker, with fast
/// backoff so retry tests don't sit in sleeps.
shard::ShardOptions ProcessOpts(const std::string& run_dir, int shards = 3) {
  shard::ShardOptions s;
  s.num_shards = shards;
  s.exec = shard::ShardExecMode::kProcess;
  s.supervisor.run_dir = run_dir;
  s.supervisor.worker_binary = CliPath();
  s.supervisor.backoff_initial_seconds = 0.01;
  s.supervisor.backoff_max_seconds = 0.05;
  return s;
}

/// Serialized bytes of the in-process sharded model — the byte-identity
/// oracle the process-exec paths are held to.
std::string InProcessBytes(const Database& db, CrossMineOptions base,
                           int shards = 3) {
  shard::ShardOptions s;
  s.num_shards = shards;
  shard::ShardedClassifier model(base, s);
  EXPECT_TRUE(model.Train(db, AllIds(db)).ok());
  return SerializeModel(model.merged_model(), db);
}

/// Trains with process exec, returning the model bytes; metrics land in
/// `*metrics` when non-null. Fails the test on a train error.
std::string ProcessBytes(const Database& db, CrossMineOptions base,
                         shard::ShardOptions sopts,
                         MetricsRegistry* metrics = nullptr) {
  shard::ShardedClassifier model(base, sopts);
  model.set_metrics(metrics);
  Status st = model.Train(db, AllIds(db));
  model.set_metrics(nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok()) return std::string();
  return SerializeModel(model.merged_model(), db);
}

double MetricValue(const MetricsRegistry& metrics, const std::string& key) {
  MetricsSnapshot snap = metrics.Snapshot();
  auto it = snap.find(key);
  return it == snap.end() ? -1.0 : it->second;
}

/// No child process of any state (running or zombie) may survive a
/// supervisor return — waitpid must see an empty child set.
void ExpectNoChildren() {
  int status = 0;
  pid_t r = ::waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(r, -1);
  if (r == -1) {
    EXPECT_EQ(errno, ECHILD);
  }
}

/// Environment entry arming `plan` in a child worker.
std::string ChildPlan(const std::string& plan) {
  return "CROSSMINE_FAULT_PLAN=" + plan;
}

std::vector<int> ActiveShardIndices(const Database& db, int num_shards) {
  shard::PartitionOptions popts;
  popts.num_shards = num_shards;
  StatusOr<std::vector<shard::Shard>> shards =
      shard::PartitionDatabase(db, AllIds(db), popts);
  EXPECT_TRUE(shards.ok());
  std::vector<int> active;
  for (size_t s = 0; s < shards->size(); ++s) {
    if (!(*shards)[s].parent_ids.empty()) active.push_back(static_cast<int>(s));
  }
  return active;
}

int CountActiveShards(const Database& db, int num_shards) {
  return static_cast<int>(ActiveShardIndices(db, num_shards).size());
}

// ---------------------------------------------------------------------------
// Identity and option propagation

TEST(ShardProcessTest, ProcessMatchesInProcessByteIdentically) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string expected = InProcessBytes(db, base);
  MetricsRegistry metrics;
  std::string got =
      ProcessBytes(db, base, ProcessOpts(FreshRunDir("identity")), &metrics);
  EXPECT_EQ(expected, got);
  // A clean run reports its (zero) robustness counters.
  EXPECT_EQ(MetricValue(metrics, "train.shard.retries"), 0.0);
  EXPECT_EQ(MetricValue(metrics, "train.shard.crashed"), 0.0);
  EXPECT_EQ(MetricValue(metrics, "train.shard.timeouts"), 0.0);
  EXPECT_EQ(MetricValue(metrics, "train.shard.quorum_used"), 0.0);
  ExpectNoChildren();
}

TEST(ShardProcessTest, AllThreeDatasetsMatchInProcess) {
  // The golden suite pins the in-process sharded models on all three paper
  // datasets; process exec must reproduce each byte for byte, which chains
  // it to the same goldens.
  struct Named {
    const char* tag;
    StatusOr<Database> db;
  };
  Named datasets[] = {
      {"synthetic", datagen::GenerateSyntheticDatabase([] {
         datagen::SyntheticConfig cfg;
         cfg.num_relations = 5;
         cfg.expected_tuples = 150;
         cfg.seed = 11;
         return cfg;
       }())},
      {"financial", datagen::GenerateFinancialDatabase({})},
      {"mutagenesis", datagen::GenerateMutagenesisDatabase({})},
  };
  CrossMineOptions base = BaseOptions();
  for (Named& d : datasets) {
    ASSERT_TRUE(d.db.ok()) << d.tag << ": " << d.db.status().ToString();
    std::string expected = InProcessBytes(*d.db, base, /*shards=*/2);
    std::string run_tag = std::string("ds_") + d.tag;
    std::string got = ProcessBytes(
        *d.db, base, ProcessOpts(FreshRunDir(run_tag.c_str()), /*shards=*/2));
    EXPECT_EQ(expected, got) << d.tag;
    ExpectNoChildren();
  }
}

TEST(ShardProcessTest, OptionsPropagateToWorkers) {
  // Options that change the learned model must reach the workers — if any
  // of them were dropped on the argv boundary, the bytes would differ.
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  base.use_sampling = true;
  base.seed = 9;
  base.look_one_ahead = false;
  base.min_foil_gain = 1.5;
  std::string expected = InProcessBytes(db, base, /*shards=*/2);
  std::string got =
      ProcessBytes(db, base, ProcessOpts(FreshRunDir("opts"), /*shards=*/2));
  EXPECT_EQ(expected, got);
  ExpectNoChildren();
}

TEST(ShardProcessTest, WorkerOptionArgsRoundTripsEveryTrainingKnob) {
  CrossMineOptions o;
  o.min_foil_gain = 1.25;
  o.max_clause_length = 4;
  o.min_pos_fraction_left = 0.05;
  o.max_clauses_per_class = 37;
  o.use_numerical_literals = false;
  o.use_aggregation_literals = false;
  o.look_one_ahead = false;
  o.use_sampling = true;
  o.neg_pos_ratio = 2.5;
  o.max_num_negative = 123;
  o.reestimate_accuracy_on_training_set = false;
  o.propagation_limits.max_avg_fanout = 3.75;
  o.propagation_limits.max_total_ids = 987654321ULL;
  o.num_threads = 3;
  o.propagation_cache_slots = 4321;
  o.seed = 77;
  std::vector<std::string> args = shard::WorkerOptionArgs(o);
  // Every knob appears as a `--wopt-*` pair with an exactly round-tripping
  // value (doubles in %.17g).
  ASSERT_EQ(args.size() % 2, 0u);
  auto value_of = [&args](const std::string& key) -> std::string {
    for (size_t i = 0; i + 1 < args.size(); i += 2) {
      if (args[i] == key) return args[i + 1];
    }
    return "<missing>";
  };
  EXPECT_EQ(value_of("--wopt-min-gain"), "1.25");
  EXPECT_EQ(value_of("--wopt-max-clause-length"), "4");
  EXPECT_EQ(value_of("--wopt-min-pos-fraction-left"),
            "0.050000000000000003");
  EXPECT_EQ(value_of("--wopt-max-clauses-per-class"), "37");
  EXPECT_EQ(value_of("--wopt-numerical"), "0");
  EXPECT_EQ(value_of("--wopt-aggregations"), "0");
  EXPECT_EQ(value_of("--wopt-lookahead"), "0");
  EXPECT_EQ(value_of("--wopt-sampling"), "1");
  EXPECT_EQ(value_of("--wopt-neg-pos-ratio"), "2.5");
  EXPECT_EQ(value_of("--wopt-max-negative"), "123");
  EXPECT_EQ(value_of("--wopt-reestimate"), "0");
  EXPECT_EQ(value_of("--wopt-max-avg-fanout"), "3.75");
  EXPECT_EQ(value_of("--wopt-max-total-ids"), "987654321");
  EXPECT_EQ(value_of("--wopt-threads"), "3");
  EXPECT_EQ(value_of("--wopt-prop-cache-slots"), "4321");
  EXPECT_EQ(value_of("--wopt-seed"), "77");
}

// ---------------------------------------------------------------------------
// Crash / hang / corruption recovery

TEST(ShardProcessTest, CrashedWorkersAreRetriedToTheIdenticalModel) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string expected = InProcessBytes(db, base);
  shard::ShardOptions sopts = ProcessOpts(FreshRunDir("crash"));
  // Every shard's first attempt dies of SIGABRT mid-checkpoint-write; the
  // retry runs clean.
  sopts.supervisor.child_env_hook = [](int, int attempt) {
    std::vector<std::string> env;
    if (attempt == 0) env.push_back(ChildPlan("shard.checkpoint.write@1=abort"));
    return env;
  };
  MetricsRegistry metrics;
  std::string got = ProcessBytes(db, base, sopts, &metrics);
  EXPECT_EQ(expected, got);
  EXPECT_GE(MetricValue(metrics, "train.shard.crashed"), 1.0);
  EXPECT_GE(MetricValue(metrics, "train.shard.retries"), 1.0);
  ExpectNoChildren();
}

TEST(ShardProcessTest, HungWorkerIsKilledAtTimeoutAndRetried) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string expected = InProcessBytes(db, base);
  shard::ShardOptions sopts = ProcessOpts(FreshRunDir("hang"));
  sopts.supervisor.worker_timeout_seconds = 2.0;
  // One shard's first attempt wedges for 30s inside the checkpoint fsync —
  // far past the timeout; the supervisor must SIGKILL and retry it.
  auto victim = std::make_shared<std::atomic<int>>(-1);
  sopts.supervisor.child_env_hook = [victim](int shard, int attempt) {
    std::vector<std::string> env;
    int expect = -1;
    if (attempt == 0 &&
        (victim->compare_exchange_strong(expect, shard) ||
         victim->load() == shard)) {
      env.push_back(ChildPlan("shard.checkpoint.fsync@1=sleep:30000"));
    }
    return env;
  };
  MetricsRegistry metrics;
  std::string got = ProcessBytes(db, base, sopts, &metrics);
  EXPECT_EQ(expected, got);
  EXPECT_GE(MetricValue(metrics, "train.shard.timeouts"), 1.0);
  ExpectNoChildren();
}

TEST(ShardProcessTest, CorruptCheckpointsAreRejectedAndRebuilt) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string run_dir = FreshRunDir("corrupt");
  std::string expected = ProcessBytes(db, base, ProcessOpts(run_dir));
  ASSERT_FALSE(expected.empty());

  // Damage two surviving checkpoints: one truncated, one bit-flipped.
  std::vector<std::string> ckpts;
  for (const auto& entry : std::filesystem::directory_iterator(run_dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) ckpts.push_back(entry.path().string());
  }
  ASSERT_GE(ckpts.size(), 2u);
  std::sort(ckpts.begin(), ckpts.end());
  {
    std::ifstream in(ckpts[0], std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string bytes = buf.str();
    std::ofstream(ckpts[0], std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 2);
    std::string flipped = buf.str();
    flipped[flipped.size() / 3] ^= 0x20;
    std::ofstream(ckpts[1], std::ios::binary | std::ios::trunc) << flipped;
  }
  // Both damaged files must read back as DATA_LOSS, never as a model.
  for (int i = 0; i < 2; ++i) {
    StatusOr<CrossMineClassifier> loaded =
        shard::LoadShardCheckpoint(db, ckpts[i]);
    ASSERT_FALSE(loaded.ok()) << ckpts[i];
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
  }

  // A resume run rejects the damaged checkpoints, rebuilds exactly those
  // shards, and still produces the identical model.
  shard::ShardOptions sopts = ProcessOpts(run_dir);
  sopts.supervisor.resume = true;
  MetricsRegistry metrics;
  std::string got = ProcessBytes(db, base, sopts, &metrics);
  EXPECT_EQ(expected, got);
  EXPECT_EQ(MetricValue(metrics, "train.shard.resumed"),
            static_cast<double>(ckpts.size() - 2));
  ExpectNoChildren();
}

TEST(ShardProcessTest, WorkerWriteFaultsAreRetried) {
  // Errno-shaped failures on each worker-side checkpoint edge: the worker
  // exits nonzero, the supervisor retries, the model is unchanged.
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string expected = InProcessBytes(db, base, /*shards=*/2);
  const char* plans[] = {
      "shard.checkpoint.write@1=EIO",
      "shard.checkpoint.fsync@1=ENOSPC",
      "shard.checkpoint.rename@1=EIO",
  };
  for (const char* plan : plans) {
    shard::ShardOptions sopts = ProcessOpts(FreshRunDir("werr"), /*shards=*/2);
    std::string plan_str = plan;
    sopts.supervisor.child_env_hook = [plan_str](int, int attempt) {
      std::vector<std::string> env;
      if (attempt == 0) env.push_back(ChildPlan(plan_str));
      return env;
    };
    MetricsRegistry metrics;
    std::string got = ProcessBytes(db, base, sopts, &metrics);
    EXPECT_EQ(expected, got) << plan;
    EXPECT_GE(MetricValue(metrics, "train.shard.retries"), 1.0) << plan;
    ExpectNoChildren();
  }
}

TEST(ShardProcessTest, SupervisorFaultPointsAreAbsorbed) {
  // Parent-side faults: spawn failure, EINTR on the wait loop (must be
  // retried internally), a transient wait error, and a checkpoint-read
  // error during result collection. All are survivable; the model never
  // changes.
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string expected = InProcessBytes(db, base, /*shards=*/2);
  const char* plans[] = {
      "shard.worker.spawn@1=EAGAIN",
      "shard.worker.wait@1=EINTR*3",
      "shard.worker.wait@1=EIO",
      "shard.checkpoint.read@1=EIO",
  };
  for (const char* plan : plans) {
    ASSERT_TRUE(FaultRegistry::Instance().ApplyPlan(plan).ok()) << plan;
    shard::ShardOptions sopts = ProcessOpts(FreshRunDir("perr"), /*shards=*/2);
    MetricsRegistry metrics;
    std::string got = ProcessBytes(db, base, sopts, &metrics);
    FaultRegistry::Instance().DisarmAll();
    EXPECT_EQ(expected, got) << plan;
    ExpectNoChildren();
  }
}

// ---------------------------------------------------------------------------
// Quorum and resume

TEST(ShardProcessTest, QuorumForgivesAPermanentlyFailingShard) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  int active = CountActiveShards(db, 3);
  ASSERT_GE(active, 2);

  // One shard (whichever spawns first) dies on every attempt.
  auto victim = std::make_shared<std::atomic<int>>(-1);
  auto fail_victim = [victim](int shard, int) {
    std::vector<std::string> env;
    int expect = -1;
    if (victim->compare_exchange_strong(expect, shard) ||
        victim->load() == shard) {
      env.push_back(ChildPlan("shard.checkpoint.write@1=abort"));
    }
    return env;
  };

  // With quorum = active-1 the run degrades gracefully...
  shard::ShardOptions sopts = ProcessOpts(FreshRunDir("quorum_ok"));
  sopts.supervisor.max_attempts = 2;
  sopts.supervisor.quorum = active - 1;
  sopts.supervisor.child_env_hook = fail_victim;
  shard::ShardedClassifier degraded(base, sopts);
  MetricsRegistry metrics;
  degraded.set_metrics(&metrics);
  Status st = degraded.Train(db, AllIds(db));
  degraded.set_metrics(nullptr);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(MetricValue(metrics, "train.shard.quorum_used"), 1.0);
  EXPECT_FALSE(degraded.merged_model().clauses().empty());
  ExpectNoChildren();

  // ...while the default (quorum 0 = all shards required) fails the run
  // with the shard's terminal status.
  victim->store(-1);
  shard::ShardOptions strict = ProcessOpts(FreshRunDir("quorum_strict"));
  strict.supervisor.max_attempts = 2;
  strict.supervisor.child_env_hook = fail_victim;
  shard::ShardedClassifier failed(base, strict);
  st = failed.Train(db, AllIds(db));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("failed after"), std::string::npos)
      << st.ToString();
  ExpectNoChildren();
}

TEST(ShardProcessTest, ResumeAfterSupervisorDeathReusesCheckpoints) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::vector<int> active = ActiveShardIndices(db, 3);
  ASSERT_GE(active.size(), 2u);
  std::string expected = InProcessBytes(db, base);
  std::string run_dir = FreshRunDir("resume");

  // Run 1 fails permanently on the LAST active shard (a stand-in for the
  // supervisor dying mid-run: some checkpoints durable, some work
  // unfinished). One worker at a time keeps the schedule serial in shard
  // order, so every earlier shard's checkpoint is durable before the
  // victim's first attempt — a deterministic partial run directory.
  int victim = active.back();
  shard::ShardOptions sopts = ProcessOpts(run_dir);
  sopts.supervisor.max_attempts = 2;
  sopts.supervisor.max_workers = 1;
  sopts.supervisor.child_env_hook = [victim](int shard, int) {
    std::vector<std::string> env;
    if (shard == victim) {
      env.push_back(ChildPlan("shard.checkpoint.write@1=abort"));
    }
    return env;
  };
  shard::ShardedClassifier first(base, sopts);
  Status st = first.Train(db, AllIds(db));
  EXPECT_FALSE(st.ok());
  ExpectNoChildren();

  // Run 2 resumes: the surviving checkpoints are reused (only the missing
  // shard retrains) and the final model is byte-identical.
  shard::ShardOptions rerun = ProcessOpts(run_dir);
  rerun.supervisor.resume = true;
  MetricsRegistry metrics;
  std::string got = ProcessBytes(db, base, rerun, &metrics);
  EXPECT_EQ(expected, got);
  EXPECT_EQ(MetricValue(metrics, "train.shard.resumed"),
            static_cast<double>(active.size() - 1));
  ExpectNoChildren();
}

TEST(ShardProcessTest, ResumeIgnoresCheckpointsFromADifferentRun) {
  // A run directory recycled with different options must not leak stale
  // checkpoints into the merge: the run-key manifest mismatches, the old
  // outputs are wiped, and training starts clean.
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  std::string run_dir = FreshRunDir("runkey");
  ProcessBytes(db, base, ProcessOpts(run_dir));  // seeds mismatched state

  CrossMineOptions other = base;
  other.use_sampling = true;
  other.seed = 123;
  shard::ShardOptions sopts = ProcessOpts(run_dir);
  sopts.supervisor.resume = true;
  MetricsRegistry metrics;
  std::string got = ProcessBytes(db, other, sopts, &metrics);
  EXPECT_EQ(MetricValue(metrics, "train.shard.resumed"), 0.0);
  EXPECT_EQ(got, InProcessBytes(db, other));
  ExpectNoChildren();
}

// ---------------------------------------------------------------------------
// Signal hygiene

TEST(ShardProcessTest, ShutdownForwardsSigtermAndReapsEveryWorker) {
  Database db = MakeDb();
  CrossMineOptions base = BaseOptions();
  shard::PartitionOptions popts;
  popts.num_shards = 2;
  StatusOr<std::vector<shard::Shard>> shards =
      shard::PartitionDatabase(db, AllIds(db), popts);
  ASSERT_TRUE(shards.ok());
  std::vector<int> active;
  for (int s = 0; s < 2; ++s) {
    if (!(*shards)[static_cast<size_t>(s)].parent_ids.empty()) {
      active.push_back(s);
    }
  }
  ASSERT_FALSE(active.empty());

  ShutdownNotifier* shutdown = ShutdownNotifier::Install();
  shutdown->ResetForTesting();

  shard::SupervisorOptions sup;
  sup.run_dir = FreshRunDir("shutdown");
  sup.worker_binary = CliPath();
  sup.max_workers = 2;
  sup.shutdown = shutdown;
  // Workers wedge inside the checkpoint fsync on every attempt; only the
  // SIGTERM forwarded at shutdown can end them.
  sup.child_env_hook = [](int, int) {
    return std::vector<std::string>{
        ChildPlan("shard.checkpoint.fsync@1=sleep:60000")};
  };

  shard::ShardSupervisor supervisor(sup);
  StatusOr<std::vector<std::optional<CrossMineClassifier>>> result =
      Status::Internal("not run");
  std::thread runner([&]() {
    result = supervisor.Run(db, base, *shards, active, nullptr);
  });
  // Give the workers time to spawn and reach the hang, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  shutdown->RequestShutdown();
  runner.join();
  shutdown->ResetForTesting();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  ExpectNoChildren();  // SIGTERM forwarded, every child reaped — no zombies
}

// ---------------------------------------------------------------------------
// Worker contract

TEST(ShardProcessTest, WorkerRejectsFingerprintMismatchPermanently) {
  Database db = MakeDb();
  std::string dir = FreshRunDir("fpmismatch");
  std::filesystem::create_directories(dir);
  std::string slice = dir + "/slice-0.cmdb";
  ASSERT_TRUE(storage::SaveDatabase(db, slice).ok());

  StatusOr<pid_t> pid = SpawnProcess({CliPath(), "train-shard", slice,
                                      dir + "/ckpt-0.cmm",
                                      "--expect-fingerprint", "12345"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  StatusOr<WaitResult> waited = WaitChild(*pid);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_TRUE(waited->exited);
  // Exit 4 is the non-retryable contract: the supervisor fails the shard
  // permanently instead of burning attempts.
  EXPECT_EQ(waited->exit_code, 4);
  EXPECT_FALSE(std::filesystem::exists(dir + "/ckpt-0.cmm"));
}

TEST(ShardProcessTest, WorkerUsageErrorsExitTwo) {
  StatusOr<pid_t> pid = SpawnProcess({CliPath(), "train-shard", "only-one"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  StatusOr<WaitResult> waited = WaitChild(*pid);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_TRUE(waited->exited);
  EXPECT_EQ(waited->exit_code, 2);
}

}  // namespace
}  // namespace crossmine
