// Corruption fuzzing for the CSV dataset loader: a seeded corpus of
// damaged datasets — truncations, targeted byte flips, duplicated primary
// keys, dangling foreign keys, junk directives — must every one be
// rejected with a clean non-OK Status. No byte pattern on disk may abort
// the process or load as a silently wrong database. Run under ASan by
// tools/check_asan.sh, so an out-of-bounds parse is a failure even when it
// does not crash.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "storage/storage.h"
#include "test_util.h"

namespace crossmine {
namespace {

using testing::MakeFig2Database;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

/// Byte offsets where data rows start (after the header line), excluding
/// the end-of-file position.
std::vector<size_t> RowStarts(const std::string& csv) {
  std::vector<size_t> starts;
  size_t pos = csv.find('\n');
  while (pos != std::string::npos && pos + 1 < csv.size()) {
    starts.push_back(pos + 1);
    pos = csv.find('\n', pos + 1);
  }
  return starts;
}

class CsvCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix the fixture dirs with the test name: ctest runs each case as
    // its own process, and parallel cases sharing one path clobber each
    // other's files mid-load.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    baseline_ = ::testing::TempDir() + "/csv_corruption_baseline_" + name;
    scratch_ = ::testing::TempDir() + "/csv_corruption_case_" + name;
    std::filesystem::remove_all(baseline_);
    std::filesystem::create_directories(baseline_);
    testing::Fig2Database fig = MakeFig2Database();
    ASSERT_TRUE(SaveDatabaseCsv(fig.db, baseline_).ok());
    // The corpus below relies on the saved layout: schema.txt with the
    // target relation last, plus Account.csv / Loan.csv.
    ASSERT_TRUE(LoadDatabaseCsv(baseline_).ok());
  }

  /// Fresh copy of the pristine dataset to corrupt.
  void FreshCase() {
    std::filesystem::remove_all(scratch_);
    std::filesystem::copy(baseline_, scratch_);
  }

  void ExpectRejected(const std::string& what) {
    StatusOr<Database> db = LoadDatabaseCsv(scratch_);
    EXPECT_FALSE(db.ok()) << what << ": corrupted dataset loaded successfully";
  }

  std::string baseline_;
  std::string scratch_;
};

TEST_F(CsvCorruptionTest, RandomizedCorruptionCorpusAllRejected) {
  std::mt19937_64 rng(20260806);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
  };

  const std::string schema = ReadFile(baseline_ + "/schema.txt");
  const std::string loan = ReadFile(baseline_ + "/Loan.csv");
  const std::string account = ReadFile(baseline_ + "/Account.csv");
  ASSERT_GT(schema.size(), 2u);
  ASSERT_GT(loan.size(), 2u);

  for (int round = 0; round < 60; ++round) {
    FreshCase();
    switch (round % 6) {
      case 0: {
        // schema.txt truncation. Cutting only the final newline leaves a
        // complete manifest, so draw from [0, size-2] — everything that
        // actually removes content. The target relation is written last,
        // so every such cut loses the target flag, an attr the data files
        // still carry, or the tail of a directive.
        size_t len = pick(schema.size() - 1);
        WriteFile(scratch_ + "/schema.txt", schema.substr(0, len));
        ExpectRejected("schema truncated to " + std::to_string(len));
        break;
      }
      case 1: {
        // Data-file truncation one byte into a random row: the final row
        // comes up short of columns.
        std::vector<size_t> starts = RowStarts(loan);
        ASSERT_FALSE(starts.empty());
        size_t cut = starts[pick(starts.size())] + 1;
        WriteFile(scratch_ + "/Loan.csv", loan.substr(0, cut));
        ExpectRejected("Loan.csv truncated mid-row at " +
                       std::to_string(cut));
        break;
      }
      case 2: {
        // Duplicate primary key: append a copy of an existing data row.
        std::vector<size_t> starts = RowStarts(account);
        ASSERT_GE(starts.size(), 2u);
        size_t from = starts[pick(starts.size() - 1)];
        size_t end = account.find('\n', from);
        std::string dup =
            account + account.substr(from, end - from) + "\n";
        WriteFile(scratch_ + "/Account.csv", dup);
        ExpectRejected("Account.csv with duplicated row");
        break;
      }
      case 3: {
        // Dangling foreign key: rewrite a Loan row's account_id (column 2)
        // to a key no Account row has.
        std::vector<size_t> starts = RowStarts(loan);
        size_t row = starts[pick(starts.size())];
        size_t c1 = loan.find(',', row);
        size_t c2 = loan.find(',', c1 + 1);
        ASSERT_NE(c2, std::string::npos);
        std::string mutated = loan.substr(0, c1 + 1) + "999983" +
                              loan.substr(c2);
        WriteFile(scratch_ + "/Loan.csv", mutated);
        ExpectRejected("Loan.csv with dangling account_id fk");
        break;
      }
      case 4: {
        // Unknown directive injected at a random line boundary of the
        // manifest (position varies; the junk is fixed so the case always
        // constitutes an error).
        std::vector<size_t> starts = RowStarts(schema);
        size_t at = starts.empty() ? schema.size()
                                   : starts[pick(starts.size())];
        std::string mutated = schema.substr(0, at) + "frobnicate 7\n" +
                              schema.substr(at);
        WriteFile(scratch_ + "/schema.txt", mutated);
        ExpectRejected("schema.txt with junk directive");
        break;
      }
      case 5: {
        // Targeted byte flip: corrupt one character of a random directive
        // keyword. Keywords never contain 'z', so the flip always yields
        // an unknown directive / unknown attr kind.
        std::vector<size_t> keyword_at;
        for (const char* kw : {"classes", "relation", "attr"}) {
          for (size_t pos = schema.find(kw); pos != std::string::npos;
               pos = schema.find(kw, pos + 1)) {
            if (pos == 0 || schema[pos - 1] == '\n') keyword_at.push_back(pos);
          }
        }
        ASSERT_FALSE(keyword_at.empty());
        size_t pos = keyword_at[pick(keyword_at.size())];
        std::string mutated = schema;
        mutated[pos + pick(4)] = 'z';
        WriteFile(scratch_ + "/schema.txt", mutated);
        ExpectRejected("schema.txt with flipped keyword byte");
        break;
      }
    }
  }
}

// Deterministic spot checks for each integrity rule the loader enforces —
// the randomized corpus above exercises positions, these pin the rules.

TEST_F(CsvCorruptionTest, SecondPrimaryKeyDeclarationRejected) {
  FreshCase();
  std::string schema = ReadFile(scratch_ + "/schema.txt");
  size_t pk = schema.find(" pk\n");
  ASSERT_NE(pk, std::string::npos);
  schema.insert(pk + 4, "attr sneaky_second_key pk\n");
  WriteFile(scratch_ + "/schema.txt", schema);
  ExpectRejected("second pk declaration");
}

TEST_F(CsvCorruptionTest, DuplicateRelationRejected) {
  FreshCase();
  std::string schema = ReadFile(scratch_ + "/schema.txt");
  schema += "relation Account\n";
  WriteFile(scratch_ + "/schema.txt", schema);
  ExpectRejected("duplicate relation name");
}

TEST_F(CsvCorruptionTest, DuplicateAttributeRejected) {
  FreshCase();
  std::string schema = ReadFile(scratch_ + "/schema.txt");
  size_t line = schema.find("attr frequency cat\n");
  ASSERT_NE(line, std::string::npos);
  schema.insert(line, "attr frequency cat\n");
  WriteFile(scratch_ + "/schema.txt", schema);
  ExpectRejected("duplicate attribute name");
}

TEST_F(CsvCorruptionTest, SecondTargetRelationRejected) {
  FreshCase();
  std::string schema = ReadFile(scratch_ + "/schema.txt");
  size_t line = schema.find("relation Account\n");
  ASSERT_NE(line, std::string::npos);
  schema.replace(line, std::strlen("relation Account\n"),
                 "relation Account target\n");
  WriteFile(scratch_ + "/schema.txt", schema);
  ExpectRejected("two target relations");
}

TEST_F(CsvCorruptionTest, HeaderNameMismatchRejected) {
  FreshCase();
  std::string csv = ReadFile(scratch_ + "/Account.csv");
  size_t pos = csv.find("frequency");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, 9, "frequencz");
  WriteFile(scratch_ + "/Account.csv", csv);
  ExpectRejected("header attr name mismatch");
}

TEST_F(CsvCorruptionTest, MissingClassColumnHeaderRejected) {
  FreshCase();
  std::string csv = ReadFile(scratch_ + "/Loan.csv");
  size_t pos = csv.find("__class__");
  ASSERT_NE(pos, std::string::npos);
  csv.replace(pos, 9, "__klass__");
  WriteFile(scratch_ + "/Loan.csv", csv);
  ExpectRejected("renamed __class__ header");
}

TEST_F(CsvCorruptionTest, NullPrimaryKeyRejected) {
  FreshCase();
  std::string csv = ReadFile(scratch_ + "/Account.csv");
  // Blank out the first data row's pk cell (first cell after the header).
  size_t row = csv.find('\n') + 1;
  size_t comma = csv.find(',', row);
  csv.erase(row, comma - row);
  WriteFile(scratch_ + "/Account.csv", csv);
  ExpectRejected("null primary key");
}

TEST_F(CsvCorruptionTest, BadClassLabelRejected) {
  FreshCase();
  std::string csv = ReadFile(scratch_ + "/Loan.csv");
  // The class label is the final cell of the first data row.
  size_t row = csv.find('\n') + 1;
  size_t row_end = csv.find('\n', row);
  size_t last_comma = csv.rfind(',', row_end);
  csv.replace(last_comma + 1, row_end - last_comma - 1, "banana");
  WriteFile(scratch_ + "/Loan.csv", csv);
  ExpectRejected("non-numeric class label");
}

TEST_F(CsvCorruptionTest, MissingDataFileRejected) {
  FreshCase();
  std::filesystem::remove(scratch_ + "/Account.csv");
  ExpectRejected("missing relation csv");
}

}  // namespace
}  // namespace crossmine
