#include "relational/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "datagen/synthetic.h"
#include "test_util.h"

namespace crossmine {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/csv_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ + "/" + name);
    out << content;
  }

  std::string dir_;
};

TEST_F(CsvTest, RoundTripPreservesEverything) {
  testing::Fig2Database f = testing::MakeFig2Database();
  ASSERT_TRUE(SaveDatabaseCsv(f.db, dir_).ok());

  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Database& db = *loaded;

  EXPECT_EQ(db.num_relations(), f.db.num_relations());
  EXPECT_EQ(db.target(), f.db.target());
  EXPECT_EQ(db.num_classes(), 2);
  EXPECT_EQ(db.labels(), f.db.labels());
  EXPECT_TRUE(db.finalized());

  for (RelId r = 0; r < db.num_relations(); ++r) {
    const Relation& a = f.db.relation(r);
    const Relation& b = db.relation(r);
    ASSERT_EQ(a.num_tuples(), b.num_tuples());
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.schema().num_attrs(), b.schema().num_attrs());
    for (AttrId attr = 0; attr < a.schema().num_attrs(); ++attr) {
      EXPECT_EQ(a.schema().attr(attr).name, b.schema().attr(attr).name);
      EXPECT_EQ(a.schema().attr(attr).kind, b.schema().attr(attr).kind);
      for (TupleId t = 0; t < a.num_tuples(); ++t) {
        if (a.schema().IsIntAttr(attr)) {
          EXPECT_EQ(a.Int(t, attr), b.Int(t, attr));
        } else {
          EXPECT_DOUBLE_EQ(a.Double(t, attr), b.Double(t, attr));
        }
      }
    }
  }
  // Dictionary strings survive.
  EXPECT_EQ(db.relation(f.account).CategoryName(f.account_frequency,
                                                f.monthly),
            "monthly");
}

TEST_F(CsvTest, RoundTripJoinGraphIdentical) {
  testing::Fig2Database f = testing::MakeFig2Database();
  ASSERT_TRUE(SaveDatabaseCsv(f.db, dir_).ok());
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->edges().size(), f.db.edges().size());
  for (size_t i = 0; i < f.db.edges().size(); ++i) {
    EXPECT_EQ(loaded->edges()[i].from_rel, f.db.edges()[i].from_rel);
    EXPECT_EQ(loaded->edges()[i].to_attr, f.db.edges()[i].to_attr);
    EXPECT_EQ(loaded->edges()[i].kind, f.db.edges()[i].kind);
  }
}

TEST_F(CsvTest, MissingDirectoryFails) {
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_ + "/nonexistent");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(CsvTest, MissingClassesDirectiveFails) {
  WriteFile("schema.txt", "relation A target\nattr id pk\n");
  WriteFile("A.csv", "id,__class__\n0,0\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(CsvTest, UnknownDirectiveFails) {
  WriteFile("schema.txt", "classes 2\nbogus A\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, NoTargetFails) {
  WriteFile("schema.txt", "classes 2\nrelation A\nattr id pk\n");
  WriteFile("A.csv", "id\n0\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, UnknownFkTargetFails) {
  WriteFile("schema.txt",
            "classes 2\nrelation A target\nattr id pk\nattr x fk Ghost\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ColumnCountMismatchFails) {
  WriteFile("schema.txt",
            "classes 2\nrelation A target\nattr id pk\nattr c cat\n");
  WriteFile("A.csv", "id,c,__class__\n0,red\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, BadNumericValueFails) {
  WriteFile("schema.txt",
            "classes 2\nrelation A target\nattr id pk\nattr x num\n");
  WriteFile("A.csv", "id,x,__class__\n0,notanumber,0\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, BadLabelFails) {
  WriteFile("schema.txt", "classes 2\nrelation A target\nattr id pk\n");
  WriteFile("A.csv", "id,__class__\n0,9\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, EmptyKeyCellLoadsAsNull) {
  WriteFile("schema.txt",
            "classes 2\nrelation B\nattr id pk\n"
            "relation A target\nattr id pk\nattr b fk B\n");
  WriteFile("B.csv", "id\n0\n");
  WriteFile("A.csv", "id,b,__class__\n0,,1\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->relation(1).Int(0, 1), kNullValue);
}

TEST_F(CsvTest, QuotedFieldsWithCommas) {
  WriteFile("schema.txt",
            "classes 2\nrelation A target\nattr id pk\nattr c cat\n");
  WriteFile("A.csv", "id,c,__class__\n0,\"red, dark\",1\n1,\"say \"\"hi\"\"\",0\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Relation& a = loaded->relation(0);
  EXPECT_EQ(a.CategoryName(1, a.Int(0, 1)), "red, dark");
  EXPECT_EQ(a.CategoryName(1, a.Int(1, 1)), "say \"hi\"");
}

TEST_F(CsvTest, CommentsAndBlankLinesIgnoredInSchema) {
  WriteFile("schema.txt",
            "# a comment\n\nclasses 2\nrelation A target\nattr id pk\n");
  WriteFile("A.csv", "id,__class__\n0,1\n");
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->labels()[0], 1);
}

TEST_F(CsvTest, SyntheticRoundTripTrainsIdentically) {
  // End-to-end: generate, save, load — the loaded DB must be structurally
  // identical (same tuple counts, labels, edges).
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 5;
  cfg.expected_tuples = 60;
  cfg.seed = 77;
  StatusOr<Database> gen = datagen::GenerateSyntheticDatabase(cfg);
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(SaveDatabaseCsv(*gen, dir_).ok());
  StatusOr<Database> loaded = LoadDatabaseCsv(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->TotalTuples(), gen->TotalTuples());
  EXPECT_EQ(loaded->labels(), gen->labels());
  EXPECT_EQ(loaded->edges().size(), gen->edges().size());
}

}  // namespace
}  // namespace crossmine
