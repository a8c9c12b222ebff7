#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "common/fs.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace crossmine {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_FALSE(Status::Internal("x").ok());
  EXPECT_EQ(Status::Internal("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad schema").ToString(),
            "InvalidArgument: bad schema");
  EXPECT_EQ(Status(StatusCode::kNotFound, "").ToString(), "NotFound");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusOrTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    CM_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double v = rng.UniformDouble(2.5, 7.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(RngTest, ExponentialAtLeastRespectsFloor) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_GE(rng.ExponentialAtLeast(5.0, 3), 3);
  }
}

TEST(RngTest, ExponentialAtLeastRoughMean) {
  Rng rng(17);
  double sum = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(rng.ExponentialAtLeast(50.0, 0));
  }
  double mean = sum / kTrials;
  EXPECT_NEAR(mean, 50.0, 3.0);
}

TEST(RngTest, BernoulliRoughFrequency) {
  Rng rng(23);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(41);
  std::vector<uint32_t> s = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<uint32_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (uint32_t x : s) EXPECT_LT(x, 50u);
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(43);
  std::vector<uint32_t> s = rng.SampleWithoutReplacement(10, 10);
  std::sort(s.begin(), s.end());
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(99);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// ------------------------------------------------------------ StringUtil --

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c,", ','),
            (std::vector<std::string>{"a", "", "c", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("\t x\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, ParseDoubleValid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(StringUtilTest, ParseDoubleInvalid) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringUtilTest, ParseInt64Valid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64(" 7 ", &v));
  EXPECT_EQ(v, 7);
}

TEST(StringUtilTest, ParseInt64Invalid) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("x", &v));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// ------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotonic) {
  Stopwatch w;
  double a = w.ElapsedSeconds();
  double b = w.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_GE(w.ElapsedMillis(), 0.0);
}

TEST(StopwatchTest, ResetRestarts) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  double before = w.ElapsedSeconds();
  w.Reset();
  EXPECT_LE(w.ElapsedSeconds(), before + 1e-3);
}

// ------------------------------------------------------------------ Crc32 --

/// The referee: the textbook bytewise CRC-32 (reflected polynomial
/// 0xEDB88320), one table lookup per byte, sharing no code with `Crc32`.
class BytewiseCrc {
 public:
  BytewiseCrc() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table_[i] = c;
    }
  }
  /// Advances a raw register by one byte.
  uint32_t Step(uint32_t reg, unsigned char byte) const {
    return table_[(reg ^ byte) & 0xFFu] ^ (reg >> 8);
  }
  uint32_t operator()(std::string_view data) const {
    uint32_t reg = 0xFFFFFFFFu;
    for (char c : data) reg = Step(reg, static_cast<unsigned char>(c));
    return reg ^ 0xFFFFFFFFu;
  }

 private:
  uint32_t table_[256];
};

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(BytewiseCrc()("123456789"), 0xCBF43926u);
}

// Every length 0..4096 at every start offset 0..63 (so every alignment and
// every tail length of the 64- and 16-byte folding blocks). Each case is
// copied into an allocation that ends exactly at its last byte, so a kernel
// that reads past the end is caught by the ASan build (tools/check_asan.sh).
TEST(Crc32Test, MatchesBytewiseRefereeAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kMaxOffset = 63;
  Rng rng(0xc3c32);
  std::string source(kMaxOffset + kMaxLen, '\0');
  for (char& c : source) c = static_cast<char>(rng.Uniform(256));
  const BytewiseCrc referee;
  for (size_t off = 0; off <= kMaxOffset; ++off) {
    // The referee's register over source[off, off + len), extended one byte
    // per length.
    uint32_t reg = 0xFFFFFFFFu;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        reg = referee.Step(
            reg, static_cast<unsigned char>(source[off + len - 1]));
      }
      std::unique_ptr<char[]> exact(new char[off + len]);
      std::memcpy(exact.get() + off, source.data() + off, len);
      ASSERT_EQ(Crc32(std::string_view(exact.get() + off, len)),
                reg ^ 0xFFFFFFFFu)
          << "len " << len << " offset " << off;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseRefereeOnOneMebibyte) {
  Rng rng(0x1b1b);
  std::string data(size_t{1} << 20, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  const BytewiseCrc referee;
  EXPECT_EQ(Crc32(data), referee(data));
  // Every byte value, repeated: long runs of one byte fold differently
  // from random data.
  std::string runs;
  for (int b = 0; b < 256; ++b) runs.append(4096, static_cast<char>(b));
  EXPECT_EQ(Crc32(runs), referee(runs));
}

}  // namespace
}  // namespace crossmine
