// Golden-model regression tests: training on fixed generator configs must
// produce models byte-identical to the committed golden files under
// tests/golden/. The goldens were written by the trainer of the original
// per-tuple vector ID storage, so these tests prove every later ID storage
// layout (today the (tuple, id) pair engine) is semantics-preserving down
// to the serialized bytes — at one worker thread and at several.
//
// To regenerate the goldens after an *intentional* model change, run with
// CROSSMINE_WRITE_GOLDEN=1 and commit the rewritten files.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "relational/index_cache.h"

#ifndef CROSSMINE_SOURCE_DIR
#error "golden_model_test needs CROSSMINE_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace crossmine {
namespace {

std::string GoldenPath(const char* name) {
  return std::string(CROSSMINE_SOURCE_DIR) + "/tests/golden/" + name;
}

/// Applies an index-memory budget for one scope and restores the previous
/// one on exit (the IndexCache budget is process-global).
class ScopedIndexBudget {
 public:
  explicit ScopedIndexBudget(uint64_t bytes)
      : previous_(IndexCache::Global().budget_bytes()) {
    IndexCache::Global().SetBudgetBytes(bytes);
  }
  ~ScopedIndexBudget() { IndexCache::Global().SetBudgetBytes(previous_); }

 private:
  uint64_t previous_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Strips container-format framing that postdates the goldens: the v2
/// checksum trailer goes, and the v2 header maps back to v1. The goldens
/// pin *training semantics* (clauses, literals, weights), not the envelope;
/// any change to the normalized payload is still a training divergence.
std::string NormalizeToV1(std::string bytes) {
  const std::string v2_header = "crossmine-model 2\n";
  if (bytes.rfind(v2_header, 0) == 0) {
    bytes.replace(0, v2_header.size(), "crossmine-model 1\n");
  }
  size_t tpos = bytes.rfind("\nchecksum ");
  if (tpos != std::string::npos && bytes.back() == '\n') {
    bytes.erase(tpos + 1);
  }
  return bytes;
}

/// Trains on `db` with `num_threads` workers and returns the model bytes,
/// normalized to the v1 container the goldens were committed in.
std::string TrainedModelBytes(const Database& db, CrossMineOptions opts,
                              int num_threads, const char* tag) {
  opts.num_threads = num_threads;
  CrossMineClassifier model(opts);
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(db, all).ok());
  std::string path = ::testing::TempDir() + "/golden_" + tag + ".cmm";
  std::filesystem::remove(path);
  EXPECT_TRUE(SaveModel(model, db, path).ok());
  return NormalizeToV1(ReadFile(path));
}

/// `train.literals_scored` of a single-thread training run: the number of
/// candidate literals offered to the gain test. Index layouts change how
/// candidates are enumerated, never which, so this count is pinned.
double LiteralsScored(const Database& db, const CrossMineOptions& opts) {
  CrossMineClassifier model(opts);
  MetricsRegistry reg;
  model.set_metrics(&reg);
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(db, all).ok());
  return reg.Snapshot().at("train.literals_scored");
}

void CheckAgainstGolden(const Database& db, const CrossMineOptions& opts,
                        const char* golden_name, double literals_scored) {
  EXPECT_EQ(LiteralsScored(db, opts), literals_scored) << golden_name;

  std::string bytes = TrainedModelBytes(db, opts, 1, golden_name);
  ASSERT_FALSE(bytes.empty());

  std::string path = GoldenPath(golden_name);
  if (std::getenv("CROSSMINE_WRITE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(GoldenPath(""));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    GTEST_SKIP() << "golden rewritten: " << path;
  }

  std::string golden = ReadFile(path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << path
                               << " (regenerate with CROSSMINE_WRITE_GOLDEN=1)";
  EXPECT_EQ(bytes, golden)
      << golden_name << ": trained model diverged from the committed golden";

  // The same bytes must come out of a multi-threaded build too.
  EXPECT_EQ(TrainedModelBytes(db, opts, 4, golden_name), golden)
      << golden_name << ": 4-thread model diverged from the committed golden";

  // And under any index-memory budget, at 1 and 4 threads: 64 MiB (holds
  // every artifact at this scale, exercising only the accounting) and a
  // thrash-level 4 KiB (evicts nearly every artifact the moment it is
  // built, so training rebuilds constantly). Eviction may change *when* an
  // index exists, never what it contains.
  for (uint64_t budget : {uint64_t{64} << 20, uint64_t{4096}}) {
    ScopedIndexBudget scoped(budget);
    EXPECT_EQ(TrainedModelBytes(db, opts, 1, golden_name), golden)
        << golden_name << ": model diverged under a " << budget
        << "-byte index budget";
    EXPECT_EQ(TrainedModelBytes(db, opts, 4, golden_name), golden)
        << golden_name << ": 4-thread model diverged under a " << budget
        << "-byte index budget";
  }
}

TEST(GoldenModelTest, SyntheticMatchesPreRefactorGolden) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CheckAgainstGolden(*db, CrossMineOptions{}, "synthetic_r8_t150_s17.cmm",
                     155566);
}

TEST(GoldenModelTest, SyntheticWithSamplingMatchesPreRefactorGolden) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 10;
  cfg.expected_tuples = 200;
  cfg.seed = 23;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CrossMineOptions opts;
  opts.use_sampling = true;
  CheckAgainstGolden(*db, opts, "synthetic_r10_t200_s23_sampling.cmm",
                     83166);
}

TEST(GoldenModelTest, FinancialMatchesPreRefactorGolden) {
  datagen::FinancialConfig cfg;
  cfg.num_loans = 80;
  cfg.seed = 5;
  StatusOr<Database> db = datagen::GenerateFinancialDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CheckAgainstGolden(*db, CrossMineOptions{}, "financial_l80_s5.cmm",
                     97546);
}

TEST(GoldenModelTest, MutagenesisMatchesPreRefactorGolden) {
  datagen::MutagenesisConfig cfg;
  cfg.num_molecules = 60;
  cfg.seed = 9;
  StatusOr<Database> db = datagen::GenerateMutagenesisDatabase(cfg);
  ASSERT_TRUE(db.ok());
  CheckAgainstGolden(*db, CrossMineOptions{}, "mutagenesis_m60_s9.cmm",
                     82994);
}

}  // namespace
}  // namespace crossmine
