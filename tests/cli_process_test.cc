// Training through a separate process: the `crossmine train` CLI, run as its
// own process on a database it loads from disk, must write byte for byte the
// model the in-library CrossMineClassifier trains on the generated database
// — on all three paper datasets, at one and at four worker threads.

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

/// Serialized bytes of the in-process model — the oracle the CLI process is
/// held to.
std::string InProcessBytes(const Database& db, int threads) {
  CrossMineOptions opts;
  opts.num_threads = threads;
  CrossMineClassifier model(opts);
  EXPECT_TRUE(model.Train(db, AllIds(db)).ok());
  return SerializeModel(model, db);
}

TEST(CliProcessTest, TrainMatchesInProcessModel) {
  // The golden suite pins the in-process models on all three paper
  // datasets; the CLI process must reproduce each byte for byte, which
  // chains it to the same goldens. Models are thread-count invariant, so
  // the CLI's --threads 4 model must also equal its --threads 1 model.
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
  for (Named& d : datasets) {
    ASSERT_TRUE(d.db.ok()) << d.tag << ": " << d.db.status().ToString();
    std::string dir = ::testing::TempDir() + "/cli_proc_" + d.tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string db_path = dir + "/db.cmdb";
    ASSERT_TRUE(storage::SaveDatabase(*d.db, db_path).ok()) << d.tag;
    std::string cli_bytes[2];
    for (int i = 0; i < 2; ++i) {
      const int threads = i == 0 ? 1 : 4;
      std::string expected = InProcessBytes(*d.db, threads);
      ASSERT_FALSE(expected.empty()) << d.tag;
      const std::string t = std::to_string(threads);
      std::string model_path = dir + "/model_t" + t + ".cmm";
      std::string out_path = dir + "/train_t" + t + ".out";
      std::string cmd = CliPath() + " train " + db_path + " " + model_path +
                        " --threads " + t + " > " + out_path + " 2>&1";
      ASSERT_EQ(std::system(cmd.c_str()), 0)
          << d.tag << " --threads " << t << ": " << ReadFile(out_path);
      cli_bytes[i] = ReadFile(model_path);
      EXPECT_EQ(cli_bytes[i], expected) << d.tag << " --threads " << t;
    }
    EXPECT_EQ(cli_bytes[1], cli_bytes[0])
        << d.tag << ": --threads 4 model differs from --threads 1";
  }
}

}  // namespace
}  // namespace crossmine
