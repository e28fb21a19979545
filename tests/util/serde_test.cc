// serde::Reader: every read is bounds-checked, so a truncated or corrupt
// blob returns a Status instead of reading past the end or throwing.
#include "util/serde.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace pushsip {
namespace {

TEST(SerdeTest, RoundTripsEveryFieldKind) {
  std::string blob;
  serde::AppendU8(7, &blob);
  serde::AppendU32(0xdeadbeef, &blob);
  serde::AppendI64(-5, &blob);
  serde::AppendF64(0.1, &blob);
  serde::AppendBytes("payload", &blob);
  serde::AppendBytes("", &blob);

  serde::Reader reader(blob);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string bytes, empty = "x";
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadI64(&i64).ok());
  ASSERT_TRUE(reader.ReadF64(&f64).ok());
  ASSERT_TRUE(reader.ReadBytes(&bytes).ok());
  ASSERT_TRUE(reader.ReadBytes(&empty).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(i64, -5);
  EXPECT_EQ(f64, 0.1);
  EXPECT_EQ(bytes, "payload");
  EXPECT_EQ(empty, "");
  EXPECT_FALSE(reader.ReadU8(&u8).ok());
}

TEST(SerdeTest, EveryTruncationFails) {
  std::string blob;
  serde::AppendU32(1, &blob);
  serde::AppendBytes("abcdef", &blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    const std::string cut = blob.substr(0, len);
    serde::Reader reader(cut);
    uint32_t u32 = 0;
    std::string bytes;
    Status st = reader.ReadU32(&u32);
    if (st.ok()) st = reader.ReadBytes(&bytes);
    EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes decoded";
  }
}

// A length near 2^64 must not wrap the bounds check: `pos + n` overflows
// to a small number, and the read would then try to allocate ~2^64 bytes.
TEST(SerdeTest, HugeByteLengthFailsInsteadOfWrapping) {
  for (const uint64_t n : {UINT64_MAX, UINT64_MAX - 7, UINT64_MAX - 11}) {
    std::string blob;
    serde::AppendU32(42, &blob);
    serde::AppendU64(n, &blob);
    blob.append(8, 'x');
    serde::Reader reader(blob);
    uint32_t u32 = 0;
    ASSERT_TRUE(reader.ReadU32(&u32).ok());
    std::string out;
    const Status st = reader.ReadBytes(&out);
    EXPECT_FALSE(st.ok()) << "length " << n;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_TRUE(out.empty());
  }
}

TEST(SerdeTest, LengthOneBeyondTheBlobFails) {
  std::string blob;
  serde::AppendU64(4, &blob);
  blob += "abc";
  serde::Reader reader(blob);
  std::string out;
  EXPECT_FALSE(reader.ReadBytes(&out).ok());
}

}  // namespace
}  // namespace pushsip
