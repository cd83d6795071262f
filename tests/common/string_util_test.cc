#include "aqua/common/string_util.h"

#include <string>

#include <gtest/gtest.h>

namespace aqua {
namespace {

TEST(SplitTest, Basic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\nabc\r "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(ToLower("SELECT Count"), "select count");
  EXPECT_EQ(ToLower("abc123"), "abc123");
}

TEST(EqualsIgnoreCaseTest, Basic) {
  EXPECT_TRUE(EqualsIgnoreCase("auctionID", "AUCTIONid"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(FormatDoubleTest, SixSignificantDigits) {
  EXPECT_EQ(FormatDouble(2.6), "2.6");
  EXPECT_EQ(FormatDouble(975.437), "975.437");
  EXPECT_EQ(FormatDouble(0.0576), "0.0576");
  EXPECT_EQ(FormatDouble(1000000.0), "1e+06");
}

TEST(FormatDoubleRoundTripTest, ShortestFormParsesBackExactly) {
  EXPECT_EQ(FormatDoubleRoundTrip(0.3), "0.3");
  EXPECT_EQ(FormatDoubleRoundTrip(1.0), "1");
  EXPECT_EQ(FormatDoubleRoundTrip(0.1 + 0.2), "0.30000000000000004");
  for (const double v : {0.0576, 1.0 / 3.0, 0.9999999, 1e-300, 975.437}) {
    EXPECT_EQ(std::stod(FormatDoubleRoundTrip(v)), v) << v;
  }
}

}  // namespace
}  // namespace aqua
