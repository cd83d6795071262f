#include "aqua/storage/csv.h"

#include <gtest/gtest.h>

#include "aqua/storage/table_builder.h"

namespace aqua {
namespace {

Schema TestSchema() {
  return *Schema::Make({{"id", ValueType::kInt64},
                        {"price", ValueType::kDouble},
                        {"phone", ValueType::kString},
                        {"posted", ValueType::kDate}});
}

TEST(CsvTest, ParsesTypedColumns) {
  const std::string text =
      "id,price,phone,posted\n"
      "1,100000.5,215,2008-01-05\n"
      "2,150000,342,1/30/2008\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0), Value::Int64(1));
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).dbl(), 100000.5);
  EXPECT_EQ(t->GetValue(1, 3).date(), *Date::FromYmd(2008, 1, 30));
}

TEST(CsvTest, HeaderMayBeReordered) {
  const std::string text =
      "posted,id,phone,price\n"
      "2008-01-05,1,215,99\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->GetValue(0, 0), Value::Int64(1));
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).dbl(), 99.0);
}

TEST(CsvTest, EmptyUnquotedFieldIsNull) {
  const std::string text =
      "id,price,phone,posted\n"
      "1,,215,2008-01-05\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->GetValue(0, 1).is_null());
}

TEST(CsvTest, QuotedEmptyStringIsNotNull) {
  const std::string text =
      "id,price,phone,posted\n"
      "1,2,\"\",2008-01-05\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 2), Value::String(""));
}

TEST(CsvTest, QuotedFieldWithSeparatorAndEscapedQuote) {
  const std::string text =
      "id,price,phone,posted\n"
      "1,2,\"a,\"\"b\"\"\",2008-01-05\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 2), Value::String("a,\"b\""));
}

TEST(CsvTest, RejectsMissingColumn) {
  EXPECT_FALSE(Csv::Parse("id,price,phone\n1,2,3\n", TestSchema()).ok());
}

TEST(CsvTest, RejectsUnknownColumn) {
  EXPECT_FALSE(
      Csv::Parse("id,price,phone,posted,extra\n1,2,3,2008-01-05,4\n",
                 TestSchema())
          .ok());
}

TEST(CsvTest, RejectsDuplicateColumn) {
  EXPECT_FALSE(
      Csv::Parse("id,id,price,phone,posted\n", TestSchema()).ok());
}

TEST(CsvTest, RejectsBadFieldTypes) {
  EXPECT_FALSE(
      Csv::Parse("id,price,phone,posted\nxx,2,3,2008-01-05\n", TestSchema())
          .ok());
  EXPECT_FALSE(
      Csv::Parse("id,price,phone,posted\n1,zz,3,2008-01-05\n", TestSchema())
          .ok());
  EXPECT_FALSE(
      Csv::Parse("id,price,phone,posted\n1,2,3,not-a-date\n", TestSchema())
          .ok());
}

TEST(CsvTest, RejectsRaggedRecord) {
  EXPECT_FALSE(
      Csv::Parse("id,price,phone,posted\n1,2,3\n", TestSchema()).ok());
}

TEST(CsvTest, RaggedRecordErrorNamesLineAndCounts) {
  const auto t = Csv::Parse(
      "id,price,phone,posted\n1,2,3,2008-01-05\n1,2,3\n", TestSchema());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("line 3"), std::string::npos)
      << t.status().message();
  EXPECT_NE(t.status().message().find("has 3 fields, expected 4"),
            std::string::npos)
      << t.status().message();
}

TEST(CsvTest, UnterminatedQuoteErrorNamesLine) {
  const auto t = Csv::Parse(
      "id,price,phone,posted\n1,2,\"unclosed,2008-01-05\n", TestSchema());
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("line 2"), std::string::npos)
      << t.status().message();
  EXPECT_NE(t.status().message().find("unterminated quoted field"),
            std::string::npos)
      << t.status().message();
}

TEST(CsvTest, UnterminatedQuoteInHeaderIsRejected) {
  const auto t = Csv::Parse("id,price,phone,\"posted\n", TestSchema());
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("header"), std::string::npos)
      << t.status().message();
}

TEST(CsvTest, BadCellErrorNamesLineAndColumn) {
  const auto bad_int = Csv::Parse(
      "id,price,phone,posted\n1,2,3,2008-01-05\nxx,2,3,2008-01-05\n",
      TestSchema());
  ASSERT_FALSE(bad_int.ok());
  EXPECT_EQ(bad_int.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_int.status().message().find("line 3, column 'id'"),
            std::string::npos)
      << bad_int.status().message();
  EXPECT_NE(bad_int.status().message().find("bad int64 field 'xx'"),
            std::string::npos)
      << bad_int.status().message();

  const auto bad_double = Csv::Parse(
      "id,price,phone,posted\n1,1.2.3,3,2008-01-05\n", TestSchema());
  ASSERT_FALSE(bad_double.ok());
  EXPECT_NE(bad_double.status().message().find("line 2, column 'price'"),
            std::string::npos)
      << bad_double.status().message();
}

TEST(CsvTest, RejectsNonFiniteDoubles) {
  // std::stod parses all of these. A NaN would hang the by-tuple MIN/MAX
  // distribution sweep, whose sort and value grouping need a total order.
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                           "1e999"}) {
    std::string csv = "id,price,phone,posted\n1,2,3,2008-01-05\n2,";
    csv += text;
    csv += ",3,2008-01-05\n";
    const auto parsed = Csv::Parse(csv, TestSchema());
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find("line 3, column 'price'"),
              std::string::npos)
        << parsed.status().message();
    EXPECT_NE(parsed.status().message().find(text), std::string::npos)
        << parsed.status().message();
  }
}

TEST(CsvTest, ControlBytesAreOrdinaryStringData) {
  // Byte 0x01 was once the parser's internal "this field was quoted"
  // sentinel; data containing it must survive unmangled.
  const Schema schema = *Schema::Make({{"s", ValueType::kString}});
  const auto t = Csv::Parse(std::string("s\n") + '\x01' + "abc\n", schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->GetValue(0, 0).str(), std::string("\x01") + "abc");
}

TEST(CsvTest, HandlesCrlfLineEndings) {
  const std::string text =
      "id,price,phone,posted\r\n1,2,3,2008-01-05\r\n2,4,5,2008-02-01\r\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(1, 0), Value::Int64(2));
}

TEST(CsvTest, SkipsInteriorBlankLines) {
  const std::string text =
      "id,price,phone,posted\n1,2,3,2008-01-05\n\n2,4,5,2008-02-01\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, RoundTrip) {
  TableBuilder b(TestSchema());
  ASSERT_TRUE(b.AppendRow({Value::Int64(1), Value::Double(100000.5),
                           Value::String("a,\"b\""),
                           Value::FromDate(*Date::FromYmd(2008, 1, 5))})
                  .ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2), Value::Null(), Value::String(""),
                           Value::Null()})
                  .ok());
  const Table original = *std::move(b).Finish();
  const std::string text = Csv::Format(original);
  const auto parsed = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), original.num_rows());
  for (size_t r = 0; r < original.num_rows(); ++r) {
    for (size_t c = 0; c < original.num_columns(); ++c) {
      EXPECT_EQ(parsed->GetValue(r, c), original.GetValue(r, c))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  TableBuilder b(TestSchema());
  ASSERT_TRUE(b.AppendRow({Value::Int64(7), Value::Double(1.25),
                           Value::String("x"),
                           Value::FromDate(*Date::FromYmd(2024, 6, 1))})
                  .ok());
  const Table t = *std::move(b).Finish();
  const std::string path = ::testing::TempDir() + "/aqua_csv_test.csv";
  ASSERT_TRUE(Csv::WriteFile(t, path).ok());
  const auto back = Csv::ReadFile(path, TestSchema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_EQ(back->GetValue(0, 0), Value::Int64(7));
}

TEST(CsvTest, MissingFileIsNotFound) {
  const auto r = Csv::ReadFile("/nonexistent/file.csv", TestSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, Utf8BomOnHeaderIsStripped) {
  // Files exported by spreadsheet tools often lead with a UTF-8 BOM;
  // without stripping it the first header column reads as "\xEF\xBB\xBFid"
  // and schema lookup fails.
  const std::string text =
      "\xEF\xBB\xBFid,price,phone,posted\n"
      "1,100.5,215,2008-01-05\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0), Value::Int64(1));
}

TEST(CsvTest, CrlfLineEndingsAreTolerated) {
  const std::string text =
      "id,price,phone,posted\r\n"
      "1,100.5,215,2008-01-05\r\n"
      "2,99,342,2008-01-06\r\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(t->GetValue(1, 1).dbl(), 99.0);
}

TEST(CsvTest, BomAndCrlfTogether) {
  // The worst realistic Windows export: BOM plus CRLF on every line,
  // including a trailing CRLF after the last record.
  const std::string text =
      "\xEF\xBB\xBFid,price,phone,posted\r\n"
      "1,100.5,215,2008-01-05\r\n";
  const auto t = Csv::Parse(text, TestSchema());
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 2), Value::String("215"));
}

TEST(CsvTest, BomlessTextStartingWithPartialBomBytesIsData) {
  // Only the full three-byte BOM is stripped; a header that genuinely
  // starts with 0xEF alone must surface as a (clear) schema error, not be
  // silently shortened.
  const std::string text = "\xEFid,price,phone,posted\n";
  const auto t = Csv::Parse(text, TestSchema());
  EXPECT_FALSE(t.ok());
}

}  // namespace
}  // namespace aqua
