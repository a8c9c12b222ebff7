// Determinism regression tests for the parallel clause-search path: any
// thread count must train the byte-identical model, because candidate
// literals are scored in independent tasks and reduced in the sequential
// enumeration order. Also exercises the ThreadPool itself (the tests here
// are the workload `tools/check_tsan.sh` runs under ThreadSanitizer).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"

namespace crossmine {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Trains on `db` with `num_threads` and returns the serialized model bytes.
std::string TrainedModelBytes(const Database& db, CrossMineOptions opts,
                              int num_threads, const char* tag) {
  opts.num_threads = num_threads;
  CrossMineClassifier model(opts);
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(db, all).ok());
  std::string path = ::testing::TempDir() + "/par_" + tag + "_t" +
                     std::to_string(num_threads) + ".cmm";
  std::filesystem::remove(path);
  EXPECT_TRUE(SaveModel(model, db, path).ok());
  std::string bytes = ReadFile(path);
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

void ExpectThreadCountInvariant(const Database& db, CrossMineOptions opts,
                                const char* tag) {
  std::string sequential = TrainedModelBytes(db, opts, 1, tag);
  std::string parallel = TrainedModelBytes(db, opts, 4, tag);
  EXPECT_EQ(sequential, parallel)
      << tag << ": 1-thread and 4-thread models diverged";
}

TEST(ParallelSearchTest, SyntheticModelsAreByteIdentical) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  ExpectThreadCountInvariant(*db, opts, "synthetic");
}

TEST(ParallelSearchTest, SyntheticWithSamplingModelsAreByteIdentical) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 10;
  cfg.expected_tuples = 200;
  cfg.seed = 23;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.use_sampling = true;
  ExpectThreadCountInvariant(*db, opts, "synthetic_sampling");
}

TEST(ParallelSearchTest, FinancialModelsAreByteIdentical) {
  datagen::FinancialConfig cfg;
  cfg.num_loans = 80;
  cfg.seed = 5;
  StatusOr<Database> db = datagen::GenerateFinancialDatabase(cfg);
  ASSERT_TRUE(db.ok());
  ExpectThreadCountInvariant(*db, CrossMineOptions{}, "financial");
}

TEST(ParallelSearchTest, MutagenesisModelsAreByteIdentical) {
  datagen::MutagenesisConfig cfg;
  cfg.num_molecules = 60;
  cfg.seed = 9;
  StatusOr<Database> db = datagen::GenerateMutagenesisDatabase(cfg);
  ASSERT_TRUE(db.ok());
  ExpectThreadCountInvariant(*db, CrossMineOptions{}, "mutagenesis");
}

TEST(ParallelSearchTest, CacheDisabledModelsAreByteIdentical) {
  // Propagation caching must not change results either: with the cache off
  // every search round re-joins from scratch like the original code.
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 120;
  cfg.seed = 31;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions cached;
  CrossMineOptions uncached;
  uncached.propagation_cache_slots = 0;
  EXPECT_EQ(TrainedModelBytes(*db, cached, 1, "cache_on"),
            TrainedModelBytes(*db, uncached, 1, "cache_off"));
  EXPECT_EQ(TrainedModelBytes(*db, cached, 4, "cache_on4"),
            TrainedModelBytes(*db, uncached, 4, "cache_off4"));
}

/// Trains with a registry attached and returns the `train.*` counter totals
/// (timers and pool-scheduling counts excluded: those legitimately vary
/// with the thread count; everything else must not).
MetricsSnapshot TrainCounterTotals(const Database& db, CrossMineOptions opts,
                                   int num_threads) {
  opts.num_threads = num_threads;
  CrossMineClassifier model(opts);
  MetricsRegistry reg;
  model.set_metrics(&reg);
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(db, all).ok());
  MetricsSnapshot counters;
  for (const auto& [key, value] : reg.Snapshot()) {
    if (key.size() >= 8 && key.compare(key.size() - 8, 8, "_seconds") == 0) {
      continue;
    }
    if (key.rfind("train.pool.", 0) == 0) continue;
    counters[key] = value;
  }
  return counters;
}

TEST(ParallelSearchTest, ReportCountersAreThreadCountInvariant) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.use_aggregation_literals = false;
  MetricsSnapshot sequential = TrainCounterTotals(*db, opts, 1);
  MetricsSnapshot parallel = TrainCounterTotals(*db, opts, 4);
  EXPECT_EQ(sequential, parallel)
      << "1-thread and 4-thread runs reported different counter totals";
  EXPECT_GT(sequential.at("train.literals_scored"), 0.0);
  EXPECT_GT(sequential.at("train.search.tasks"), 0.0);
  // The frontier volume is part of the comparison above; make sure it was
  // actually exercised.
  EXPECT_GT(sequential.at("train.propagation.pairs"), 0.0);
  EXPECT_EQ(sequential.at("train.propagation.pairs"),
            parallel.at("train.propagation.pairs"));
}

TEST(ParallelSearchTest, AttachedMetricsDoNotPerturbTheModel) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 120;
  cfg.seed = 31;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());

  std::string detached = TrainedModelBytes(*db, CrossMineOptions{}, 4, "plain");
  CrossMineClassifier model{CrossMineOptions{}};
  MetricsRegistry reg;
  model.set_metrics(&reg);
  std::vector<TupleId> all(db->target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  ASSERT_TRUE(model.Train(*db, all).ok());
  std::string path = ::testing::TempDir() + "/par_metrics_t4.cmm";
  std::filesystem::remove(path);
  ASSERT_TRUE(SaveModel(model, *db, path).ok());
  EXPECT_EQ(ReadFile(path), detached)
      << "attaching a MetricsRegistry changed the trained model";
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void(int)>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&hits, i](int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 4);
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
  }
  pool.RunTasks(tasks);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int batch = 0; batch < 50; ++batch) {
    std::vector<std::function<void(int)>> tasks;
    for (int i = 0; i < batch % 7; ++i) {
      tasks.push_back([&sum](int) { sum.fetch_add(1); });
    }
    pool.RunTasks(tasks);  // includes empty batches
  }
  int expected = 0;
  for (int batch = 0; batch < 50; ++batch) expected += batch % 7;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void(int)>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, i](int worker) {
      EXPECT_EQ(worker, 0);
      order.push_back(i);  // no synchronization: must be the calling thread
    });
  }
  pool.RunTasks(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Server-drain ordering contract: batches submitted after Shutdown are
// rejected outright — not run, not lost in a queue, not deadlocked.
TEST(ThreadPoolTest, ShutdownRejectsLaterBatches) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void(int)>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&ran](int) { ran.fetch_add(1); });
  }
  EXPECT_TRUE(pool.RunTasks(tasks));
  EXPECT_EQ(ran.load(), 16);
  pool.Shutdown();
  EXPECT_FALSE(pool.RunTasks(tasks)) << "batch after Shutdown must be rejected";
  EXPECT_EQ(ran.load(), 16) << "rejected batch must not run any task";
  pool.Shutdown();  // idempotent
  EXPECT_FALSE(pool.RunTasks(tasks));
}

TEST(ThreadPoolTest, ShutdownRejectsOnSequentialPoolToo) {
  ThreadPool pool(1);
  pool.Shutdown();
  bool ran = false;
  EXPECT_FALSE(pool.RunTasks({[&ran](int) { ran = true; }}));
  EXPECT_FALSE(ran);
}

// Shutdown racing an in-flight batch (from another thread, as the server
// drain path does) lets the batch run to completion: every task executes
// exactly once and RunTasks still reports success.
TEST(ThreadPoolTest, ShutdownDuringBatchCompletesInFlightTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 64;
  std::atomic<int> started{0};
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void(int)>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&, i](int) {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
  }
  bool accepted = false;
  std::thread runner([&] { accepted = pool.RunTasks(tasks); });
  while (started.load() == 0) std::this_thread::yield();
  pool.Shutdown();  // must not strand the batch or deadlock the runner
  runner.join();
  EXPECT_TRUE(accepted);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
  EXPECT_FALSE(pool.RunTasks(tasks));
}

TEST(ThreadPoolTest, ResolveMapsZeroToHardwareConcurrency) {
  EXPECT_EQ(ThreadPool::Resolve(1), 1);
  EXPECT_EQ(ThreadPool::Resolve(6), 6);
  EXPECT_EQ(ThreadPool::Resolve(0), ThreadPool::HardwareConcurrency());
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

}  // namespace
}  // namespace crossmine
