// Copyright 2026 The WWT Authors

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/hash.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace wwt {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table ", 42, " missing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "table 42 missing");
  EXPECT_EQ(s.ToString(), "NotFound: table 42 missing");
}

TEST(StatusTest, FactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(),
            StatusCode::kNotImplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

Status FailingHelper() { return Status::Internal("inner"); }
Status PropagatingHelper() {
  WWT_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  Status s = PropagatingHelper();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "inner");
}

// -------------------------------------------------------------- StatusOr

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(v.value_or(3), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(3), 3);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(5));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 5);
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(10), 10u);
}

TEST(RandomTest, UniformIntInclusiveBounds) {
  Random rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliEdgeCases) {
  Random rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliApproximatesProbability) {
  Random rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, ShuffleIsPermutation) {
  Random rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RandomTest, SampleWithoutReplacementDistinct) {
  Random rng(19);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(RandomTest, SampleClampedToPopulation) {
  Random rng(21);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 100).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(0, 3).empty());
}

TEST(RandomTest, CategoricalRespectsWeights) {
  Random rng(23);
  int second = 0;
  for (int i = 0; i < 5000; ++i) {
    second += rng.Categorical({1.0, 9.0}) == 1;
  }
  EXPECT_NEAR(second / 5000.0, 0.9, 0.03);
}

TEST(RandomTest, ZipfPrefersLowRanks) {
  Random rng(29);
  int low = 0;
  for (int i = 0; i < 2000; ++i) low += rng.Zipf(100, 1.2) < 10;
  EXPECT_GT(low, 1000);
}

TEST(RandomTest, ForkIsIndependent) {
  Random a(31);
  Random child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --------------------------------------------------------------- strings

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC 12!"), "abc 12!");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringUtilTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(Split("a,,b, c", ", "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Split("", ",").empty());
  EXPECT_TRUE(Split(",,,", ",").empty());
}

TEST(StringUtilTest, SplitTrimmedKeepsEmptyFields) {
  EXPECT_EQ(SplitTrimmed(" a | b |c ", '|'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitTrimmed("a||b", '|'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitTrimmed("a , ,\t", ','),
            (std::vector<std::string>{"a", "", ""}));
  EXPECT_EQ(SplitTrimmed("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitTrimmed("  one  ", ';'),
            (std::vector<std::string>{"one"}));
}

TEST(StringUtilTest, JsonEscapeEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("q\"uote"), "q\\\"uote");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

TEST(StringUtilTest, ParseUintReadsWholeDigitStringsInRange) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint("0", 0, 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint("0042", 0, 100, &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseUint("4294967295", 0, 4294967295u, &v));
  EXPECT_EQ(v, 4294967295u);
  EXPECT_TRUE(ParseUint("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "1x", "0x10", "1.0",
                          "abc", "4294967296", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseUint(bad, 0, 4294967295u, &v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseUint("0", 1, 10, &v));   // below min
  EXPECT_FALSE(ParseUint("11", 1, 10, &v));  // above max
  EXPECT_FALSE(ParseUint("10", 0, 9, &v));   // last digit tips over
  EXPECT_EQ(v, 7u);  // failures leave the output alone
}

TEST(StringUtilTest, ParseDoubleReadsWholeFiniteNumbersInRange) {
  double v = -1;
  EXPECT_TRUE(ParseDouble("2.5", 0, 10, &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("1e3", 0, 1e9, &v));
  EXPECT_DOUBLE_EQ(v, 1000);
  EXPECT_TRUE(ParseDouble("0", 0, 1, &v));
  EXPECT_DOUBLE_EQ(v, 0);
  v = -1;
  for (const char* bad : {"", "abc", "5x", " 5", "5 ", "0x10", "inf",
                          "nan", "-inf", "1e999", "1..2", "--1"}) {
    EXPECT_FALSE(ParseDouble(bad, -1e300, 1e300, &v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseDouble("0", kMinPositive, 10, &v));  // positive wanted
  EXPECT_FALSE(ParseDouble("-1", 0, 10, &v));
  EXPECT_FALSE(ParseDouble("10.5", 0, 10, &v));
  EXPECT_DOUBLE_EQ(v, -1);  // failures leave the output alone
  EXPECT_TRUE(ParseDouble("1e-300", kMinPositive, 10, &v));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"x"}, "-"), "x");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("header", "head"));
  EXPECT_FALSE(StartsWith("head", "header"));
  EXPECT_TRUE(EndsWith("winners", "s"));
  EXPECT_FALSE(EndsWith("s", "winners"));
}

TEST(StringUtilTest, LooksNumericAcceptsRealWorldNumbers) {
  EXPECT_TRUE(LooksNumeric("42"));
  EXPECT_TRUE(LooksNumeric("-3.5"));
  EXPECT_TRUE(LooksNumeric("2,236"));
  EXPECT_TRUE(LooksNumeric("85%"));
  EXPECT_TRUE(LooksNumeric("$1,200"));
  EXPECT_TRUE(LooksNumeric("  17 "));
}

TEST(StringUtilTest, LooksNumericRejectsText) {
  EXPECT_FALSE(LooksNumeric("Name"));
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("3 kg"));
  EXPECT_FALSE(LooksNumeric("1.2.3"));
  EXPECT_FALSE(LooksNumeric("-"));
}

TEST(StringUtilTest, UppercaseRatio) {
  EXPECT_DOUBLE_EQ(UppercaseRatio("ABC"), 1.0);
  EXPECT_DOUBLE_EQ(UppercaseRatio("abc"), 0.0);
  EXPECT_DOUBLE_EQ(UppercaseRatio("AbCd"), 0.5);
  EXPECT_DOUBLE_EQ(UppercaseRatio("123"), 0.0);
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.5), "1.50");
}

// ------------------------------------------------------------------ hash

TEST(HashTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(Fnv1a(""), Fnv1a("a"));
}

// ----------------------------------------------------------------- timer

TEST(TimerTest, WallTimerMovesForward) {
  WallTimer t;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Restart();
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace wwt
