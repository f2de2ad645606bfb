#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>

#include "util/bitset.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace schemex::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, OkCodeNormalizesMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kParseError}) {
    EXPECT_FALSE(StatusCodeToString(c).empty());
    EXPECT_NE(StatusCodeToString(c), "Unknown");
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  SCHEMEX_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

StatusOr<int> DoubleIt(int x) {
  SCHEMEX_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> v = ParsePositive(3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3);
  StatusOr<int> e = ParsePositive(0);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e.value_or(42), 42);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  EXPECT_EQ(*DoubleIt(5), 10);
  EXPECT_FALSE(DoubleIt(-5).ok());
}

TEST(StatusOrTest, OkStatusBecomesInternalError) {
  StatusOr<int> v = Status::OK();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_GT(hits, 2700);
  EXPECT_LT(hits, 3300);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(2);
  auto s = rng.SampleIndices(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 30u);
  for (size_t i : s) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesClampsToN) {
  Rng rng(2);
  auto s = rng.SampleIndices(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a\t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinAndTrim) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, ParseNumbers) {
  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64("123", &u));
  EXPECT_EQ(u, 123u);
  EXPECT_FALSE(ParseUint64("12x", &u));
  EXPECT_FALSE(ParseUint64("", &u));
  // Overflow fails instead of wrapping, and leaves *out alone.
  EXPECT_TRUE(ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  u = 7;
  EXPECT_FALSE(ParseUint64("18446744073709551616", &u));
  EXPECT_FALSE(ParseUint64("99999999999999999999999", &u));
  EXPECT_EQ(u, 7u);
  EXPECT_FALSE(ParseUint64("-1", &u));
  EXPECT_FALSE(ParseUint64("+1", &u));
  EXPECT_FALSE(ParseUint64(" 1", &u));
  double d = 0;
  EXPECT_TRUE(ParseDouble("2.5", &d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(ParseDouble("2.5z", &d));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(BitsetTest, SetClearTestCount) {
  DenseBitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, SetAllRespectsSize) {
  DenseBitset b(70);
  b.SetAll();
  EXPECT_EQ(b.Count(), 70u);
  DenseBitset full(70, true);
  EXPECT_EQ(full.Count(), 70u);
  EXPECT_EQ(b, full);
}

TEST(BitsetTest, AndOrForEach) {
  DenseBitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  DenseBitset u = a;
  u.OrWith(b);
  EXPECT_EQ(u.Count(), 3u);
  DenseBitset i = a;
  i.AndWith(b);
  EXPECT_EQ(i.Count(), 1u);
  std::vector<size_t> seen;
  u.ForEach([&](size_t x) { seen.push_back(x); });
  EXPECT_EQ(seen, (std::vector<size_t>{1, 50, 99}));
}

TEST(TablePrinterTest, AlignedOutput) {
  TablePrinter t;
  t.SetHeader({"name", "n"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  std::ostringstream os;
  t.Print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("| name  | n  |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1  |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvEscaping) {
  TablePrinter t;
  t.SetHeader({"a", "b"});
  t.AddRow({"x,y", "q\"z"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace schemex::util
