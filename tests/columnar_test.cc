// Round-trip and facade tests for the `.cmdb` binary columnar format and
// the storage::OpenDatabase entry point. The load path is zero-copy —
// relations borrow column spans straight out of the mapping — so beyond
// value equality these tests pin copy-on-write mutation semantics and the
// golden byte-identity guarantee: a model trained from a `.cmdb` database
// is byte-for-byte the model trained from the same database loaded any
// other way.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/synthetic.h"
#include "relational/csv.h"
#include "storage/storage.h"
#include "test_util.h"

#ifndef CROSSMINE_SOURCE_DIR
#error "columnar_test needs CROSSMINE_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace crossmine {
namespace {

using testing::MakeFig2Database;
using testing::MakeRandomDatabase;

std::string TempPath(const char* stem) {
  const std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string path = ::testing::TempDir() + "/columnar_" + name + "_" + stem;
  std::filesystem::remove_all(path);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Full value-level equality of two databases: schemas, cells,
/// dictionaries, labels, and the derived join graph.
void ExpectSameDatabase(const Database& a, const Database& b) {
  ASSERT_EQ(a.num_relations(), b.num_relations());
  EXPECT_EQ(a.target(), b.target());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.edges().size(), b.edges().size());
  EXPECT_EQ(SchemaFingerprint(a), SchemaFingerprint(b));
  for (RelId r = 0; r < a.num_relations(); ++r) {
    const Relation& ra = a.relation(r);
    const Relation& rb = b.relation(r);
    EXPECT_EQ(ra.name(), rb.name());
    ASSERT_EQ(ra.schema().num_attrs(), rb.schema().num_attrs());
    ASSERT_EQ(ra.num_tuples(), rb.num_tuples());
    for (AttrId at = 0; at < ra.schema().num_attrs(); ++at) {
      EXPECT_EQ(ra.schema().attr(at).name, rb.schema().attr(at).name);
      EXPECT_EQ(ra.schema().attr(at).kind, rb.schema().attr(at).kind);
      EXPECT_EQ(ra.Dictionary(at), rb.Dictionary(at));
      for (TupleId t = 0; t < ra.num_tuples(); ++t) {
        if (ra.schema().IsIntAttr(at)) {
          EXPECT_EQ(ra.Int(t, at), rb.Int(t, at)) << r << "/" << at << "/" << t;
        } else {
          EXPECT_EQ(ra.Double(t, at), rb.Double(t, at))
              << r << "/" << at << "/" << t;
        }
      }
    }
  }
}

TEST(ColumnarTest, RoundTripsFig2Database) {
  testing::Fig2Database fig = MakeFig2Database();
  std::string path = TempPath("fig2.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok());

  StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->finalized());
  ExpectSameDatabase(fig.db, *loaded);
  // Dictionary strings survive, not just codes.
  EXPECT_EQ(loaded->relation(fig.account).CategoryName(fig.account_frequency,
                                                       fig.monthly),
            "monthly");
}

TEST(ColumnarTest, RoundTripsRandomDatabases) {
  // MakeRandomDatabase deliberately leaves dangling / NULL foreign keys:
  // the columnar loader must take them verbatim (convert-time validation is
  // trusted; the crc is the integrity boundary), unlike the CSV loader
  // which would reject them.
  for (uint64_t seed : {1u, 7u, 23u, 99u}) {
    Database db = MakeRandomDatabase(seed, /*num_relations=*/4,
                                     /*max_tuples=*/40);
    std::string path =
        TempPath(("rand" + std::to_string(seed) + ".cmdb").c_str());
    ASSERT_TRUE(storage::SaveDatabaseColumnar(db, path).ok());
    StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": "
                             << loaded.status().ToString();
    ExpectSameDatabase(db, *loaded);
  }
}

TEST(ColumnarTest, RoundTripsWithChecksumVerificationOff) {
  testing::Fig2Database fig = MakeFig2Database();
  std::string path = TempPath("noverify.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok());
  storage::ColumnarOpenOptions options;
  options.verify_checksums = false;
  StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabase(fig.db, *loaded);
}

TEST(ColumnarTest, MutationAfterOpenCopiesOnWrite) {
  testing::Fig2Database fig = MakeFig2Database();
  std::string path = TempPath("cow.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok());
  StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path);
  ASSERT_TRUE(loaded.ok());

  // Mutate a borrowed cell and append a row: both must materialize the
  // touched columns without writing through to the file.
  Relation& loan = loaded->mutable_relation(fig.loan);
  ASSERT_TRUE(loan.IntColumn(fig.loan_account).borrowed());
  loan.SetInt(0, fig.loan_account, 3);
  EXPECT_FALSE(loan.IntColumn(fig.loan_account).borrowed());
  EXPECT_EQ(loan.Int(0, fig.loan_account), 3);
  TupleId t = loan.AddTuple();
  loan.SetInt(t, 0, 99);
  EXPECT_EQ(loan.num_tuples(), fig.db.relation(fig.loan).num_tuples() + 1);

  // Untouched columns still borrow from the mapping.
  EXPECT_EQ(loan.Double(1, fig.loan_amount),
            fig.db.relation(fig.loan).Double(1, fig.loan_amount));

  // The file is unchanged: a fresh open sees the original data.
  StatusOr<Database> again = storage::OpenDatabaseColumnar(path);
  ASSERT_TRUE(again.ok());
  ExpectSameDatabase(fig.db, *again);
}

TEST(ColumnarTest, LoadedDatabaseOutlivesTrainingAndIndexBuilds) {
  // Index construction and training walk borrowed columns heavily; the
  // Database must keep the mapping alive without any caller bookkeeping.
  Database db = MakeRandomDatabase(3, /*num_relations=*/3, /*max_tuples=*/25);
  std::string path = TempPath("train.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(db, path).ok());
  StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path);
  ASSERT_TRUE(loaded.ok());

  CrossMineClassifier model{CrossMineOptions{}};
  std::vector<TupleId> all(loaded->target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(*loaded, all).ok());
}

TEST(ColumnarTest, InfoReportsSchemaAndSegmentSizes) {
  testing::Fig2Database fig = MakeFig2Database();
  std::string path = TempPath("info.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok());

  StatusOr<storage::ColumnarInfo> info = storage::ReadColumnarInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->fingerprint, SchemaFingerprint(fig.db));
  EXPECT_EQ(info->num_classes, 2);
  EXPECT_EQ(info->labels_bytes, 5 * sizeof(ClassId));
  ASSERT_EQ(info->relations.size(), 2u);
  EXPECT_EQ(info->relations[0].name, "Account");
  EXPECT_EQ(info->relations[0].tuples, 4u);
  EXPECT_FALSE(info->relations[0].is_target);
  EXPECT_EQ(info->relations[1].name, "Loan");
  EXPECT_TRUE(info->relations[1].is_target);
  // Account: account_id pk, frequency cat (+ 2-entry dict), date num.
  const storage::ColumnarRelationInfo& account = info->relations[0];
  ASSERT_EQ(account.attrs.size(), 3u);
  EXPECT_EQ(account.attrs[0].kind, "pk");
  EXPECT_EQ(account.attrs[0].column_bytes, 4 * sizeof(int64_t));
  EXPECT_EQ(account.attrs[1].dict_count, 2u);
  EXPECT_EQ(info->file_bytes, std::filesystem::file_size(path));
}

TEST(ColumnarTest, FacadeSniffsBothFormats) {
  testing::Fig2Database fig = MakeFig2Database();
  std::string csv_dir = TempPath("csv");
  std::string cmdb = TempPath("db.cmdb");
  ASSERT_TRUE(storage::SaveDatabase(fig.db, csv_dir).ok());
  ASSERT_TRUE(storage::SaveDatabase(fig.db, cmdb).ok());

  StatusOr<storage::Format> csv_format = storage::SniffFormat(csv_dir);
  ASSERT_TRUE(csv_format.ok());
  EXPECT_EQ(*csv_format, storage::Format::kCsvDir);
  StatusOr<storage::Format> cmdb_format = storage::SniffFormat(cmdb);
  ASSERT_TRUE(cmdb_format.ok());
  EXPECT_EQ(*cmdb_format, storage::Format::kColumnar);

  StatusOr<Database> from_csv = storage::OpenDatabase(csv_dir);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  StatusOr<Database> from_cmdb = storage::OpenDatabase(cmdb);
  ASSERT_TRUE(from_cmdb.ok()) << from_cmdb.status().ToString();
  ExpectSameDatabase(*from_csv, *from_cmdb);

  EXPECT_EQ(storage::SniffFormat(csv_dir + "_missing").status().code(),
            StatusCode::kNotFound);
  std::string junk = TempPath("junk.bin");
  std::ofstream(junk, std::ios::binary) << "definitely not a database";
  EXPECT_EQ(storage::SniffFormat(junk).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Golden byte-identity: the reason the format can replace CSV everywhere.

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

std::string TrainedModelBytes(const Database& db, const char* tag) {
  CrossMineClassifier model{CrossMineOptions{}};
  std::vector<TupleId> all(db.target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_TRUE(model.Train(db, all).ok());
  std::string path = ::testing::TempDir() + "/columnar_model_" + tag + ".cmm";
  std::filesystem::remove(path);
  EXPECT_TRUE(SaveModel(model, db, path).ok());
  return NormalizeToV1(ReadFile(path));
}

TEST(ColumnarGoldenTest, CmdbTrainingMatchesCommittedGolden) {
  // Convert the golden generator config to `.cmdb`, open it, train: the
  // model must be byte-identical to the committed pre-refactor golden —
  // the storage format is invisible to training.
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());

  std::string path = TempPath("golden.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(*db, path).ok());
  StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::string golden = ReadFile(std::string(CROSSMINE_SOURCE_DIR) +
                                "/tests/golden/synthetic_r8_t150_s17.cmm");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(TrainedModelBytes(*loaded, "cmdb"), golden)
      << "training from .cmdb diverged from the committed golden";
}

TEST(ColumnarGoldenTest, CsvConvertOpenTrainingMatchesCsvTraining) {
  // The full convert pipeline: CSV dir -> load -> convert -> open. Models
  // trained from the CSV-loaded and the cmdb-opened database must be
  // byte-identical.
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 8;
  cfg.expected_tuples = 150;
  cfg.seed = 17;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(db.ok());

  std::string csv_dir = TempPath("csv");
  std::filesystem::create_directories(csv_dir);
  ASSERT_TRUE(SaveDatabaseCsv(*db, csv_dir).ok());
  StatusOr<Database> from_csv = LoadDatabaseCsv(csv_dir);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();

  std::string cmdb = TempPath("converted.cmdb");
  ASSERT_TRUE(storage::SaveDatabaseColumnar(*from_csv, cmdb).ok());
  StatusOr<Database> from_cmdb = storage::OpenDatabase(cmdb);
  ASSERT_TRUE(from_cmdb.ok()) << from_cmdb.status().ToString();

  ExpectSameDatabase(*from_csv, *from_cmdb);
  EXPECT_EQ(TrainedModelBytes(*from_csv, "csv"),
            TrainedModelBytes(*from_cmdb, "converted"))
      << "CSV-loaded and cmdb-opened training diverged";
}

}  // namespace
}  // namespace crossmine
