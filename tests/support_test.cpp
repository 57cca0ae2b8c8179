#include "support/check.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace motune::support {
namespace {

TEST(JsonNumber, RefusesWhatRfc8259Refuses) {
  for (const char* text : {"[1-2]", "[+5]", "[01]", "[-01]", "[1.]", "[.5]",
                           "[-]", "[1e]", "[1e+]", "[1.e5]", "[0x10]",
                           "1-2", "+5", "01", "1.", ".5", "-"})
    EXPECT_THROW(Json::parse(text), CheckError) << text;
  // Out of the double range: refused, not clamped to inf or 0.
  EXPECT_THROW(Json::parse("[1e400]"), CheckError);
  EXPECT_THROW(Json::parse("[1e-400]"), CheckError);
  // What the grammar allows.
  EXPECT_EQ(Json::parse("[-0.5e+2]")[0].asNumber(), -50.0);
  EXPECT_EQ(Json::parse("[0E-0]")[0].asNumber(), 0.0);
  EXPECT_EQ(Json::parse("[10,2]")[1].asNumber(), 2.0);
}

TEST(JsonNumber, SubnormalsParse) {
  EXPECT_EQ(Json::parse("[2.2250738585072009e-308]")[0].asNumber(),
            std::nextafter(DBL_MIN, 0.0));
  EXPECT_EQ(Json::parse("[4.9406564584124654e-324]")[0].asNumber(),
            std::numeric_limits<double>::denorm_min());
}

/// dump() then parse() of one number, compared as bit patterns.
std::uint64_t roundTripBits(double v) {
  const Json back = Json::parse(Json(JsonArray{Json(v)}).dump(-1));
  return std::bit_cast<std::uint64_t>(back[0].asNumber());
}

TEST(JsonNumber, DumpParseRoundTripIsBitExact) {
  for (const double v :
       {0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, 1e15,
        1e16, 999999999999999.0, 0.1, -1.0 / 3.0, 9007199254740993.0})
    EXPECT_EQ(roundTripBits(v), std::bit_cast<std::uint64_t>(v)) << v;
  // -0.0 is written as 0 (json.h); parse() itself keeps the sign.
  EXPECT_EQ(Json(-0.0).dump(), "0");
  EXPECT_TRUE(std::signbit(Json::parse("-0").asNumber()));

  Rng rng(25);
  int checked = 0;
  while (checked < 20000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(roundTripBits(v), std::bit_cast<std::uint64_t>(v)) << v;
    ++checked;
  }
}

/// The text the number formatter is specified to produce: integers below
/// 1e15 in plain decimal, everything else as printf's "%.17g".
std::string printfReference(double v) {
  if (std::abs(v) < 1e15 && v == std::trunc(v))
    return std::to_string(static_cast<long long>(v));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string numberText(double v) {
  std::string text;
  numberTo(v, text);
  return text;
}

TEST(JsonNumber, NumberTextMatchesPrintfG17) {
  std::vector<double> values{0.0,
                             -0.0,
                             5e-324,
                             DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             1e15,
                             -1e15,
                             1e16,
                             999999999999999.0,
                             999999999999999.5,
                             1e-5,
                             1e21,
                             123456.789,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  const auto withNeighbours = [&](double v) {
    for (const double w : {v, -v}) {
      values.push_back(w);
      values.push_back(std::nextafter(w, 0.0));
      values.push_back(std::nextafter(w, 2 * w));
    }
  };
  // An exact tie in the 17th digit rounds to even: ...56.75 to ...56.8.
  // The double nearest 1e-14 lies below 10^-14 (9.99999999999999998819e-15),
  // yet its 17 digits round up to a 1 in the next decade.
  EXPECT_EQ(numberText(1234567890123456.75), "1234567890123456.8");
  EXPECT_EQ(numberText(1e-14), "1e-14");
  for (const double v : {1234567890123456.75, 1234567890123456.25, 1e-14})
    withNeighbours(v);
  // Powers of ten, where the decimal exponent estimate and the rounding
  // carry meet; the %g switch points lie among them (1e-5/1e-4, 1e16/1e17).
  for (int e = -30; e <= 40; ++e) withNeighbours(std::pow(10.0, e));
  for (const double v : {9.99995e-5, 9.999999999999999e-5, 9.9999999999999999e16,
                         99999999999999999.0, 1e17 - 8, 1e16 - 1})
    withNeighbours(v);
  // Both edges of the integer-arithmetic range [2^-50, 2^128), subnormals
  // and the largest finite values around it.
  for (const double v : {std::ldexp(1.0, -50), std::ldexp(1.0, 128),
                         std::ldexp(1.0, -51), std::ldexp(1.0, 127),
                         std::ldexp(1.0, -1022), std::ldexp(1.0, -1074),
                         std::ldexp(1.0, -1060), DBL_MAX})
    withNeighbours(v);
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    // Magnitudes the journal holds: times, resources, tile sizes.
    values.push_back(rng.uniform() * std::pow(10.0, static_cast<double>(rng.uniformInt(-12, 18))));
    values.push_back(static_cast<double>(rng.uniformInt(-100000, 100000)));
    // Subnormals.
    values.push_back(std::bit_cast<double>(rng() & ((1ull << 52) - 1)));
  }
  for (const double v : values)
    ASSERT_EQ(numberText(v), printfReference(v))
        << std::bit_cast<std::uint64_t>(v);
  // numbersTo writes the array dump() writes for the same numbers.
  std::string array;
  numbersTo(values, array);
  EXPECT_EQ(array, Json(JsonArray(values.begin(), values.end())).dump(-1));
  array.clear();
  numbersTo(std::vector<std::int64_t>{-3, 0, 700}, array);
  numbersTo(std::vector<double>{}, array);
  EXPECT_EQ(array, "[-3,0,700][]");

  // Random bit patterns: every other one with its exponent field drawn
  // from the integer-arithmetic range and a little beyond it. to_chars
  // with a precision, specified as the same printf and several times
  // faster than glibc's, is the reference for these.
  for (int i = 0; i < 10'000'000; ++i) {
    std::uint64_t bits = rng();
    if (i % 2 == 1) {
      const auto biased =
          static_cast<std::uint64_t>(rng.uniformInt(1023 - 52, 1023 + 129));
      bits = (bits & ~(0x7ffull << 52)) | (biased << 52);
    }
    const double v = std::bit_cast<double>(bits);
    if (!std::isfinite(v)) continue;
    char buf[32];
    const std::to_chars_result r =
        std::abs(v) < 1e15 && v == std::trunc(v)
            ? std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(v))
            : std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, 17);
    ASSERT_EQ(numberText(v), std::string_view(buf, r.ptr)) << bits;
  }
}

TEST(JsonString, MalformedUnicodeEscapeIsACheckError) {
  EXPECT_EQ(Json::parse(R"("\u0041")").asString(), "A");
  for (const char* text : {R"("\uzzzz")", R"("\u+041")", R"("\u 041")",
                           R"("\u00")"})
    EXPECT_THROW(Json::parse(text), CheckError) << text;
}

TEST(JsonNumber, HexWordsRoundTripAndRejectMalformedText) {
  EXPECT_EQ(hexWord(0).asString(), "0x0000000000000000");
  EXPECT_EQ(hexWord(0xdeadbeefcafebabeull).asString(), "0xdeadbeefcafebabe");
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t word = rng();
    EXPECT_EQ(hexWordValue(hexWord(word)), word);
  }
  for (const char* text : {"0x", "12", "0xg0", "0x1 ", "0x10000000000000000"})
    EXPECT_THROW(hexWordValue(Json(text)), CheckError) << text;
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_NO_THROW(MOTUNE_CHECK(1 + 1 == 2));
  try {
    MOTUNE_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniformInt(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntMeanUnbiased) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(rng.uniformInt(0, 9));
  EXPECT_NEAR(sum / n, 4.5, 0.05);
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.gaussian();
  EXPECT_NEAR(mean(xs), 0.0, 0.05);
  EXPECT_NEAR(stddev(xs), 1.0, 0.05);
}

TEST(Rng, SplitStreamsIndependentish) {
  Rng a(9);
  Rng b = a.split();
  EXPECT_NE(a(), b());
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{7}), 7.0);
}

TEST(Stats, MeanStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, SummaryMatchesPieces) {
  const std::vector<double> xs{1, 5, 3};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, EmptyInputRejected) {
  EXPECT_THROW(mean(std::vector<double>{}), CheckError);
  EXPECT_THROW(median(std::vector<double>{}), CheckError);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t("Title");
  t.setHeader({"name", "value"});
  t.addRow({"a", "1"});
  t.addRow({"long-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| a         | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(Table, RowWidthMismatchRejected) {
  TextTable t;
  t.setHeader({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), CheckError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmtPercent(0.151, 1), "15.1%");
  EXPECT_EQ(fmtSeconds(1.5), "1.500 s");
  EXPECT_EQ(fmtSeconds(0.0015), "1.500 ms");
  EXPECT_EQ(fmtSeconds(0.0000015), "1.500 us");
}

} // namespace
} // namespace motune::support
