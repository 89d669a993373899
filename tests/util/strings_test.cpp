#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace astra {
namespace {

// ScanFields with a generous capacity, returned as a vector so expectations
// read like the SplitView ones.
std::vector<std::string_view> Scan(std::string_view text, char delim) {
  std::string_view fields[32];
  const std::size_t count = ScanFields(text, delim, fields, 32);
  EXPECT_LE(count, 32u);
  return {fields, fields + count};
}

TEST(SplitViewTest, BasicSplit) {
  const auto fields = SplitView("a\tb\tc", '\t');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitViewTest, PreservesEmptyFields) {
  const auto fields = SplitView("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitViewTest, EmptyInput) {
  const auto fields = SplitView("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(ScanFieldsTest, MatchesSplitViewOnBasics) {
  const auto fields = Scan("a\tb\tc", '\t');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(ScanFieldsTest, PreservesEmptyFields) {
  const auto fields = Scan("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(ScanFieldsTest, EmptyInputIsOneEmptyField) {
  const auto fields = Scan("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(ScanFieldsTest, AllDelimiters) {
  // Every byte of the SWAR word is a hit: 9 empty fields from 8 tabs.
  const auto fields = Scan("\t\t\t\t\t\t\t\t", '\t');
  ASSERT_EQ(fields.size(), 9u);
  for (const auto field : fields) EXPECT_EQ(field, "");
}

TEST(ScanFieldsTest, EightByteBoundaryLines) {
  // Lengths straddling the 8-byte word: the tail loop (size % 8 bytes) and
  // the delimiter landing exactly on a word edge are the classic SWAR
  // off-by-one sites.
  for (std::size_t length = 1; length <= 40; ++length) {
    for (std::size_t at = 0; at < length; ++at) {
      std::string text(length, 'x');
      text[at] = '\t';
      const auto fields = Scan(text, '\t');
      ASSERT_EQ(fields.size(), 2u) << "length=" << length << " at=" << at;
      EXPECT_EQ(fields[0], text.substr(0, at));
      EXPECT_EQ(fields[1], text.substr(at + 1));
    }
  }
}

TEST(ScanFieldsTest, EmbeddedCarriageReturnIsPayload) {
  // '\r' is an ordinary byte to the scanner; CRLF handling belongs to the
  // line splitter above it.
  const auto fields = Scan("a\rb\tc\r", '\t');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a\rb");
  EXPECT_EQ(fields[1], "c\r");
}

TEST(ScanFieldsTest, LargeOffsetViewsScanIdentically) {
  // Views deep into a large buffer start at arbitrary alignment; the scan
  // must neither read before the view nor depend on word alignment.
  const std::string payload = "alpha\tbeta\t\tdelta";
  std::string buffer(4096, '\t');
  for (const std::size_t offset :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{1021}, std::size_t{4000}}) {
    buffer.replace(offset, payload.size(), payload);
    const std::string_view view(buffer.data() + offset, payload.size());
    const auto fields = Scan(view, '\t');
    ASSERT_EQ(fields.size(), 4u) << "offset=" << offset;
    EXPECT_EQ(fields[0], "alpha");
    EXPECT_EQ(fields[1], "beta");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "delta");
    buffer.replace(offset, payload.size(), payload.size(), '\t');
  }
}

TEST(ScanFieldsTest, OverflowReportsMaxPlusOneWithoutScanningOn) {
  std::string_view fields[3];
  EXPECT_EQ(ScanFields("a,b,c", ',', fields, 3), 3u);
  EXPECT_EQ(ScanFields("a,b,c,d", ',', fields, 3), 4u);  // max + 1
  EXPECT_EQ(ScanFields("a,b,c,d,e,f,g,h", ',', fields, 3), 4u);
  // The fields delimited before the overflow are still valid.
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
}

// The SWAR scanner and the scalar splitter must agree on every field.
void ExpectSplitViewParity(const std::string& text) {
  const auto expected = SplitView(text, '\t');
  std::string_view fields[80];
  const std::size_t count = ScanFields(text, '\t', fields, 80);
  ASSERT_EQ(count, expected.size()) << "text \"" << text << '"';
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(fields[i], expected[i]) << "text \"" << text << "\" field " << i;
  }
}

TEST(ScanFieldsTest, FuzzParityWithSplitView) {
  // Random strings over a delimiter-dense alphabet.
  Rng rng(0x5ca7f1e1d5ULL);
  const char alphabet[] = {'\t', '\t', 'a', 'b', '0', '\r', ',', ' '};
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const std::size_t length = rng.UniformInt(std::uint64_t{64});
    for (std::size_t i = 0; i < length; ++i) {
      text += alphabet[rng.UniformInt(std::uint64_t{sizeof alphabet})];
    }
    SCOPED_TRACE(trial);
    ExpectSplitViewParity(text);
  }
}

TEST(ScanFieldsTest, ByteAfterADelimiterIsNotADelimiter) {
  // 0x08 is '\t' ^ 0x01: the borrow out of a matched tab byte must not flag
  // it (Mycroft's inexact detector did).  Every offset within a word.
  for (const std::string& core : {std::string("a\t\x08b"), std::string("\t\x08\x08\t")}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      ExpectSplitViewParity(std::string(offset, 'x') + core + std::string(16, 'y'));
      ExpectSplitViewParity(std::string(offset, 'x') + core);
    }
  }
}

TEST(SplitWhitespaceTest, CollapsesRuns) {
  const auto fields = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitWhitespaceTest, AllWhitespace) {
  EXPECT_TRUE(SplitWhitespace(" \t\n ").empty());
}

TEST(TrimViewTest, TrimsBothEnds) {
  EXPECT_EQ(TrimView("  hi  "), "hi");
  EXPECT_EQ(TrimView("hi"), "hi");
  EXPECT_EQ(TrimView("   "), "");
  EXPECT_EQ(TrimView(""), "");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("timestamp\tnode", "timestamp"));
  EXPECT_FALSE(StartsWith("time", "timestamp"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(ParseInt64Test, ValidAndInvalid) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-7"), -7);
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("42x").has_value());
  EXPECT_FALSE(ParseInt64("x42").has_value());
  EXPECT_FALSE(ParseInt64("4 2").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").has_value());
}

TEST(ParseUint64Test, HexSupport) {
  EXPECT_EQ(ParseUint64("ff", 16), 255u);
  EXPECT_EQ(ParseUint64("0xff", 16), 255u);
  EXPECT_EQ(ParseUint64("0x0000000010", 16), 16u);
  EXPECT_FALSE(ParseUint64("0x", 16).has_value());
  EXPECT_FALSE(ParseUint64("-1").has_value());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("3.25C").has_value());
  EXPECT_FALSE(ParseDouble("NA").has_value());
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(ParseDecimalI64Test, AgreesWithParseInt64OnEdges) {
  const std::string_view cases[] = {
      "", "-", "0", "-0", "+5", "42", "-42", " 42", "42 ", "4 2", "042",
      "9223372036854775807",   // INT64_MAX
      "9223372036854775808",   // INT64_MAX + 1: overflow
      "-9223372036854775808",  // INT64_MIN
      "-9223372036854775809",  // INT64_MIN - 1: overflow
      "99999999999999999999999", "1e3", "0x10", "12a", "--4",
  };
  for (const auto text : cases) {
    EXPECT_EQ(ParseDecimalI64(text), ParseInt64(text)) << '"' << text << '"';
  }
  EXPECT_EQ(ParseDecimalI64("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(ParseHexU64Test, AgreesWithParseUint64OnEdges) {
  const std::string_view cases[] = {
      "", "0x", "0", "ff", "FF", "0xff", "0xFF", "0Xff", "deadBEEF",
      "ffffffffffffffff",          // UINT64_MAX
      "10000000000000000",         // 17 nibbles: overflow
      "0x0000000000000000000010",  // leading zeros never overflow
      "g", "0xg", "-1", " ff", "ff ",
  };
  for (const auto text : cases) {
    EXPECT_EQ(ParseHexU64(text), ParseUint64(text, 16)) << '"' << text << '"';
  }
}

TEST(ParseParityTest, FuzzDecimalAndHexAgainstFromChars) {
  Rng rng(0xdecafULL);
  const char alphabet[] = {'0', '1', '7', '9', 'a', 'f', 'F', 'g',
                           'x', '-', '+', ' ', '0', '5'};
  for (int trial = 0; trial < 5000; ++trial) {
    std::string text;
    const std::size_t length = rng.UniformInt(std::uint64_t{24});
    for (std::size_t i = 0; i < length; ++i) {
      text += alphabet[rng.UniformInt(std::uint64_t{sizeof alphabet})];
    }
    EXPECT_EQ(ParseDecimalI64(text), ParseInt64(text)) << '"' << text << '"';
    EXPECT_EQ(ParseHexU64(text), ParseUint64(text, 16)) << '"' << text << '"';
  }
}

TEST(WithThousandsTest, Grouping) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(4369731), "4,369,731");
  EXPECT_EQ(WithThousands(1412738), "1,412,738");
  EXPECT_EQ(WithThousands(1000000000ULL), "1,000,000,000");
}

}  // namespace
}  // namespace astra
