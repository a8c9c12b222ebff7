// Sharded training through a separate process: the `crossmine train
// --shards K` CLI, run as its own process on a database it loads from disk,
// must write byte for byte the model the in-library ShardedClassifier trains
// on the generated database — on all three paper datasets.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "shard/sharded_trainer.h"
#include "storage/storage.h"

namespace crossmine {
namespace {

std::string CliPath() { return CROSSMINE_CLI_PATH; }

std::vector<TupleId> AllIds(const Database& db) {
  std::vector<TupleId> ids(db.target_relation().num_tuples());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Serialized bytes of the in-process sharded model — the oracle the CLI
/// process is held to.
std::string InProcessBytes(const Database& db, CrossMineOptions base,
                           int shards) {
  shard::ShardOptions s;
  s.num_shards = shards;
  shard::ShardedClassifier model(base, s);
  EXPECT_TRUE(model.Train(db, AllIds(db)).ok());
  return SerializeModel(model.merged_model(), db);
}

TEST(ShardProcessTest, AllThreeDatasetsMatchInProcess) {
  // The golden suite pins the in-process sharded models on all three paper
  // datasets; the CLI process must reproduce each byte for byte, which
  // chains it to the same goldens.
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
  CrossMineOptions base;
  base.num_threads = 2;
  for (Named& d : datasets) {
    ASSERT_TRUE(d.db.ok()) << d.tag << ": " << d.db.status().ToString();
    std::string expected = InProcessBytes(*d.db, base, /*shards=*/2);
    ASSERT_FALSE(expected.empty()) << d.tag;

    std::string dir = ::testing::TempDir() + "/shard_proc_" + d.tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string db_path = dir + "/db.cmdb";
    std::string model_path = dir + "/model.cmm";
    ASSERT_TRUE(storage::SaveDatabase(*d.db, db_path).ok()) << d.tag;
    std::string cmd = CliPath() + " train " + db_path + " " + model_path +
                      " --shards 2 --threads 2 > " + dir + "/train.out 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0)
        << d.tag << ": " << ReadFile(dir + "/train.out");
    EXPECT_EQ(ReadFile(model_path), expected) << d.tag;
  }
}

}  // namespace
}  // namespace crossmine
