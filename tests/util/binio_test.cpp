// Bounded binary (de)serialization: exact round trips, sticky failure on
// exhausted or hostile input, and the CRC-32 reference vector.
#include "util/binio.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace astra::binio {
namespace {

TEST(BinioTest, RoundTripsEveryType) {
  std::string buffer;
  Writer writer(buffer);
  writer.PutU8(0xAB);
  writer.PutU32(0xDEADBEEF);
  writer.PutU64(std::numeric_limits<std::uint64_t>::max());
  writer.PutI32(-123456);
  writer.PutI64(std::numeric_limits<std::int64_t>::min());
  writer.PutBool(true);
  writer.PutBool(false);
  writer.PutDouble(3.141592653589793);
  writer.PutString("tab\tnewline\nnul");
  writer.PutString("");

  Reader reader(buffer);
  EXPECT_EQ(reader.GetU8(), 0xAB);
  EXPECT_EQ(reader.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.GetU64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(reader.GetI32(), -123456);
  EXPECT_EQ(reader.GetI64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(reader.GetBool());
  EXPECT_FALSE(reader.GetBool());
  EXPECT_EQ(reader.GetDouble(), 3.141592653589793);
  std::string s;
  EXPECT_TRUE(reader.GetString(s));
  EXPECT_EQ(s, "tab\tnewline\nnul");
  EXPECT_TRUE(reader.GetString(s));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(reader.Ok());
  EXPECT_EQ(reader.Remaining(), 0u);
}

TEST(BinioTest, LittleEndianFixedWidthEncoding) {
  std::string buffer;
  Writer writer(buffer);
  writer.PutU32(0x01020304);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buffer[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buffer[3]), 0x01);
}

TEST(BinioTest, ExhaustionIsStickyAndReturnsZeros) {
  std::string buffer;
  Writer writer(buffer);
  writer.PutU32(7);

  Reader reader(buffer);
  EXPECT_EQ(reader.GetU32(), 7u);
  EXPECT_EQ(reader.GetU64(), 0u);  // past the end
  EXPECT_FALSE(reader.Ok());
  EXPECT_EQ(reader.GetU32(), 0u);  // still failed, still zero
  EXPECT_FALSE(reader.Ok());
}

TEST(BinioTest, StringLengthBeyondBufferRejected) {
  std::string buffer;
  Writer writer(buffer);
  writer.PutU64(1'000'000);  // claims a megabyte that is not there
  buffer += "abc";

  Reader reader(buffer);
  std::string out = "sentinel";
  EXPECT_FALSE(reader.GetString(out));
  EXPECT_FALSE(reader.Ok());
}

TEST(BinioTest, CanReadItemsGuardsHostileCounts) {
  std::string buffer(64, '\0');
  Reader reader(buffer);
  EXPECT_TRUE(reader.CanReadItems(8, 8));
  EXPECT_TRUE(reader.Ok());

  Reader hostile(buffer);
  // A forged count whose count*size would overflow 64 bits must still fail.
  EXPECT_FALSE(hostile.CanReadItems(std::numeric_limits<std::uint64_t>::max(), 8));
  EXPECT_FALSE(hostile.Ok());

  Reader slightly(buffer);
  EXPECT_FALSE(slightly.CanReadItems(9, 8));  // one item too many
  EXPECT_FALSE(slightly.Ok());
}

TEST(BinioTest, Crc32MatchesReferenceVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

TEST(BinioTest, Crc32DetectsSingleBitFlip) {
  std::string payload(256, 'x');
  const std::uint32_t clean = Crc32(payload);
  for (std::size_t i = 0; i < payload.size(); i += 37) {
    std::string flipped = payload;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    EXPECT_NE(Crc32(flipped), clean) << "flip at byte " << i;
  }
}

// The checkpoint rule keeps a payload only if the decoded state writes back
// as the same bytes: trailing bytes, a bool stored as 2, a decode that fails
// or reads past the end are each refused.
TEST(BinioTest, DecodeCanonicalKeepsOnlyWhatTheEncoderWrites) {
  std::uint64_t value = 0;
  bool flag = false;
  const auto decode = [&](Reader& reader) {
    value = reader.GetU64();
    flag = reader.GetBool();
    return true;
  };
  const auto encode = [&](Writer& writer) {
    writer.PutU64(value);
    writer.PutBool(flag);
  };
  std::string canonical;
  Writer writer(canonical);
  writer.PutU64(42);
  writer.PutBool(true);
  EXPECT_TRUE(DecodeCanonical(canonical, decode, encode));
  EXPECT_EQ(value, 42u);

  EXPECT_FALSE(DecodeCanonical(canonical + "x", decode, encode));
  std::string two = canonical;
  two.back() = 2;
  EXPECT_FALSE(DecodeCanonical(two, decode, encode));
  EXPECT_FALSE(DecodeCanonical(canonical.substr(0, 8), decode, encode));
  EXPECT_FALSE(DecodeCanonical(
      canonical, [](Reader&) { return false; }, encode));
}

}  // namespace
}  // namespace astra::binio
