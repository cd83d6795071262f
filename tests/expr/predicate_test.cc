#include "aqua/expr/predicate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "aqua/common/random.h"
#include "aqua/storage/table_builder.h"

namespace aqua {
namespace {

Schema TestSchema() {
  return *Schema::Make({{"a", ValueType::kInt64},
                        {"b", ValueType::kDouble},
                        {"s", ValueType::kString},
                        {"d", ValueType::kDate}});
}

Table TestTable() {
  TableBuilder builder(TestSchema());
  auto date = [](int day) {
    return Value::FromDate(*Date::FromYmd(2008, 1, day));
  };
  EXPECT_TRUE(builder
                  .AppendRow({Value::Int64(1), Value::Double(10.0),
                              Value::String("x"), date(5)})
                  .ok());
  EXPECT_TRUE(builder
                  .AppendRow({Value::Int64(2), Value::Double(20.0),
                              Value::String("y"), date(25)})
                  .ok());
  EXPECT_TRUE(builder
                  .AppendRow({Value::Int64(3), Value::Null(),
                              Value::String("x"), date(15)})
                  .ok());
  return *std::move(builder).Finish();
}

TEST(PredicateTest, ToString) {
  auto p = Predicate::And(
      Predicate::Comparison("a", CompareOp::kGe, Value::Int64(1)),
      Predicate::Not(
          Predicate::Comparison("s", CompareOp::kEq, Value::String("x"))));
  EXPECT_EQ(p->ToString(), "(a >= 1 AND (NOT s = 'x'))");
  EXPECT_EQ(Predicate::True()->ToString(), "TRUE");
}

TEST(PredicateTest, CollectAttributes) {
  auto p = Predicate::Or(
      Predicate::Comparison("a", CompareOp::kLt, Value::Int64(5)),
      Predicate::Comparison("b", CompareOp::kGt, Value::Double(1.0)));
  std::vector<std::string> attrs;
  p->CollectAttributes(&attrs);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], "a");
  EXPECT_EQ(attrs[1], "b");
}

TEST(PredicateTest, RenameAttributes) {
  auto p = Predicate::And(
      Predicate::Comparison("date", CompareOp::kLt, Value::Int64(5)),
      Predicate::True());
  auto renamed = Predicate::RenameAttributes(
      p, [](const std::string& name) -> Result<std::string> {
        return name + "_src";
      });
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ((*renamed)->ToString(), "(date_src < 5 AND TRUE)");
}

TEST(PredicateTest, RenamePropagatesFailure) {
  auto p = Predicate::Comparison("comments", CompareOp::kEq, Value::Int64(1));
  auto renamed = Predicate::RenameAttributes(
      p, [](const std::string& name) -> Result<std::string> {
        return Status::NotFound("no correspondence for " + name);
      });
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kNotFound);
}

TEST(BoundPredicateTest, ComparisonOps) {
  const Table t = TestTable();
  struct Case {
    CompareOp op;
    int64_t literal;
    bool row0;
    bool row1;
  };
  const Case cases[] = {
      {CompareOp::kEq, 1, true, false}, {CompareOp::kNe, 1, false, true},
      {CompareOp::kLt, 2, true, false}, {CompareOp::kLe, 2, true, true},
      {CompareOp::kGt, 1, false, true}, {CompareOp::kGe, 2, false, true},
  };
  for (const Case& c : cases) {
    auto p = Predicate::Comparison("a", c.op, Value::Int64(c.literal));
    auto bound = BoundPredicate::Bind(p, t.schema());
    ASSERT_TRUE(bound.ok());
    EXPECT_EQ(bound->Matches(t, 0), c.row0)
        << "op " << CompareOpToString(c.op);
    EXPECT_EQ(bound->Matches(t, 1), c.row1)
        << "op " << CompareOpToString(c.op);
  }
}

TEST(BoundPredicateTest, NumericCoercionIntColumnDoubleLiteral) {
  const Table t = TestTable();
  auto p = Predicate::Comparison("a", CompareOp::kLt, Value::Double(1.5));
  auto bound = BoundPredicate::Bind(p, t.schema());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Matches(t, 0));
  EXPECT_FALSE(bound->Matches(t, 1));
}

TEST(BoundPredicateTest, DateStringLiteralCoerces) {
  const Table t = TestTable();
  auto p = Predicate::Comparison("d", CompareOp::kLt,
                                 Value::String("2008-1-20"));
  auto bound = BoundPredicate::Bind(p, t.schema());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(bound->Matches(t, 0));   // Jan 5
  EXPECT_FALSE(bound->Matches(t, 1));  // Jan 25
  EXPECT_TRUE(bound->Matches(t, 2));   // Jan 15
}

TEST(BoundPredicateTest, BadDateLiteralFailsAtBind) {
  const Table t = TestTable();
  auto p = Predicate::Comparison("d", CompareOp::kLt,
                                 Value::String("not-a-date"));
  EXPECT_FALSE(BoundPredicate::Bind(p, t.schema()).ok());
}

TEST(BoundPredicateTest, UnknownAttributeFailsAtBind) {
  const Table t = TestTable();
  auto p = Predicate::Comparison("zzz", CompareOp::kEq, Value::Int64(1));
  auto bound = BoundPredicate::Bind(p, t.schema());
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
}

TEST(BoundPredicateTest, IncomparableTypesFailAtBind) {
  const Table t = TestTable();
  EXPECT_FALSE(BoundPredicate::Bind(Predicate::Comparison(
                                        "s", CompareOp::kLt, Value::Int64(1)),
                                    t.schema())
                   .ok());
  EXPECT_FALSE(BoundPredicate::Bind(
                   Predicate::Comparison("a", CompareOp::kEq,
                                         Value::String("1")),
                   t.schema())
                   .ok());
}

TEST(BoundPredicateTest, NullLiteralRejected) {
  const Table t = TestTable();
  EXPECT_FALSE(BoundPredicate::Bind(
                   Predicate::Comparison("a", CompareOp::kEq, Value::Null()),
                   t.schema())
                   .ok());
}

TEST(BoundPredicateTest, NullCellIsUnknown) {
  const Table t = TestTable();  // row 2 has b = NULL
  auto p = Predicate::Comparison("b", CompareOp::kLt, Value::Double(100.0));
  auto bound = BoundPredicate::Bind(p, t.schema());
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->Eval(t, 2), Tri::kUnknown);
  EXPECT_FALSE(bound->Matches(t, 2));
}

TEST(BoundPredicateTest, ThreeValuedLogic) {
  const Table t = TestTable();  // row 2: b NULL, a = 3
  auto null_cmp =
      Predicate::Comparison("b", CompareOp::kLt, Value::Double(1.0));
  auto true_cmp = Predicate::Comparison("a", CompareOp::kEq, Value::Int64(3));
  auto false_cmp = Predicate::Comparison("a", CompareOp::kEq, Value::Int64(9));

  // UNKNOWN AND TRUE = UNKNOWN; UNKNOWN AND FALSE = FALSE.
  EXPECT_EQ(BoundPredicate::Bind(Predicate::And(null_cmp, true_cmp),
                                 t.schema())
                ->Eval(t, 2),
            Tri::kUnknown);
  EXPECT_EQ(BoundPredicate::Bind(Predicate::And(null_cmp, false_cmp),
                                 t.schema())
                ->Eval(t, 2),
            Tri::kFalse);
  // UNKNOWN OR TRUE = TRUE; UNKNOWN OR FALSE = UNKNOWN.
  EXPECT_EQ(BoundPredicate::Bind(Predicate::Or(null_cmp, true_cmp),
                                 t.schema())
                ->Eval(t, 2),
            Tri::kTrue);
  EXPECT_EQ(BoundPredicate::Bind(Predicate::Or(null_cmp, false_cmp),
                                 t.schema())
                ->Eval(t, 2),
            Tri::kUnknown);
  // NOT UNKNOWN = UNKNOWN.
  EXPECT_EQ(BoundPredicate::Bind(Predicate::Not(null_cmp), t.schema())
                ->Eval(t, 2),
            Tri::kUnknown);
}

TEST(BoundPredicateTest, TrueMatchesEverything) {
  const Table t = TestTable();
  auto bound = BoundPredicate::Bind(Predicate::True(), t.schema());
  ASSERT_TRUE(bound.ok());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_TRUE(bound->Matches(t, r));
  }
}

TEST(BoundPredicateTest, DeepTreeEvaluates) {
  const Table t = TestTable();
  // Chain of 20 ANDs exceeds the inline node buffer.
  PredicatePtr p = Predicate::Comparison("a", CompareOp::kGe, Value::Int64(0));
  for (int i = 0; i < 20; ++i) {
    p = Predicate::And(
        p, Predicate::Comparison("a", CompareOp::kLe, Value::Int64(100)));
  }
  auto bound = BoundPredicate::Bind(p, t.schema());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->Matches(t, 0));
}

TEST(BoundPredicateTest, NullPredicateRejected) {
  const Table t = TestTable();
  EXPECT_FALSE(BoundPredicate::Bind(nullptr, t.schema()).ok());
}

// ---------------------------------------------------------------------------
// MatchBlock against the per-row oracle.

constexpr size_t kBlock = BoundPredicate::kBlock;
constexpr int64_t kTwo53 = int64_t{1} << 53;

// One column of each type with NULLs (i, x, s, d) and one without (j, y,
// t, e), over 2 * kBlock + 3 rows, so that every block length below ends
// mid-table. The cells cycle through edge values: integers around 2^53
// and the int64 limits, +-0.0, NaN and infinities (appended directly:
// the CSV reader rejects them), the empty string and string prefixes.
Table OracleTable() {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t ints[] = {0, 1, -1, 3, kTwo53, kTwo53 + 1, -kTwo53, kMax, kMin};
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const double big = 9007199254740992.0;
  const double doubles[] = {0.0, -0.0, 1.5, -2.25, nan, inf, -inf, big, 1e-310};
  const char* const strings[] = {"", "a", "ab", "abc", "b", "ab\x01", "B"};
  const Schema schema = *Schema::Make(
      {{"i", ValueType::kInt64}, {"x", ValueType::kDouble},
       {"s", ValueType::kString}, {"d", ValueType::kDate},
       {"j", ValueType::kInt64}, {"y", ValueType::kDouble},
       {"t", ValueType::kString}, {"e", ValueType::kDate}});
  std::vector<Column> cols;
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    cols.emplace_back(schema.attribute(c).type);
  }
  Rng rng(2009);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  for (size_t r = 0; r < 2 * kBlock + 3; ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (c < 4 && pick(5) == 0) {
        cols[c].AppendNull();
        continue;
      }
      switch (schema.attribute(c).type) {
        case ValueType::kInt64:
          cols[c].AppendInt64(ints[pick(std::size(ints))]);
          break;
        case ValueType::kDouble:
          cols[c].AppendDouble(doubles[pick(std::size(doubles))]);
          break;
        case ValueType::kString:
          cols[c].AppendString(strings[pick(std::size(strings))]);
          break;
        default:
          cols[c].AppendDate(
              *Date::FromYmd(2008, 1, static_cast<int>(1 + pick(20))));
          break;
      }
    }
  }
  return *Table::Make(schema, std::move(cols));
}

// Runs MatchBlock over contiguous blocks of kBlock - 1, kBlock and
// kBlock + 1 rows, and over unsorted id lists with repeated ids, and
// checks every output byte against Matches on that row. One scratch
// serves every call, as in the scans. Returns the TRUE rows seen, so a
// caller can check that the case is not vacuous.
size_t ExpectBlocksMatchRows(const BoundPredicate& p, const Table& t) {
  BoundPredicate::Scratch scratch;
  size_t checked = 0;
  size_t matched = 0;
  std::string first_mismatch;
  auto check = [&](const uint32_t* ids, size_t first, size_t n) {
    std::vector<uint8_t> out(n, 7);
    p.MatchBlock(t, ids, first, n, out.data(), &scratch);
    for (size_t i = 0; i < n; ++i) {
      const size_t row = ids != nullptr ? ids[first + i] : first + i;
      const uint8_t expected = p.Matches(t, row) ? 1 : 0;
      ++checked;
      matched += out[i];
      if (out[i] != expected && first_mismatch.empty()) {
        first_mismatch = "row " + std::to_string(row) + ": block " +
                         std::to_string(out[i]) + ", per-row " +
                         std::to_string(expected);
      }
    }
  };
  for (const size_t len : {kBlock - 1, kBlock, kBlock + 1}) {
    for (size_t first = 0; first < t.num_rows(); first += len) {
      check(nullptr, first, std::min(len, t.num_rows() - first));
    }
  }
  Rng rng(53);
  std::vector<uint32_t> ids(kBlock + 9);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(t.num_rows()) - 1));
  }
  ids[5] = ids[4];  // a repeat next to its twin, as well as random ones
  check(ids.data(), 0, ids.size());
  check(ids.data(), 3, kBlock);
  check(ids.data(), ids.size() - 1, 1);
  EXPECT_EQ(first_mismatch, "");
  EXPECT_EQ(checked, 3 * t.num_rows() + 2 * kBlock + 10);
  return matched;
}

const CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

TEST(MatchBlockTest, EveryOpOnEveryTypeMatchesRows) {
  const Table t = OracleTable();
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* column;
    Value literal;
  };
  const std::vector<Case> cases = {
      // int64 columns: integer order against int64 literals, the sign of
      // double(x) - y against double ones (x beyond 2^53 rounds).
      {"i", Value::Int64(3)},
      {"j", Value::Int64(kTwo53)},
      {"i", Value::Int64(std::numeric_limits<int64_t>::min())},
      {"j", Value::Double(2.5)},
      {"i", Value::Double(9007199254740992.0)},
      {"j", Value::Double(-9007199254740992.0)},
      {"i", Value::Double(-0.0)},
      {"j", Value::Double(nan)},
      // double columns: +-0.0, NaN and infinite cells and literals.
      {"x", Value::Double(0.0)},
      {"y", Value::Double(-0.0)},
      {"x", Value::Double(1.5)},
      {"y", Value::Int64(3)},
      {"x", Value::Int64(kTwo53)},
      {"y", Value::Double(inf)},
      {"x", Value::Double(-inf)},
      {"y", Value::Double(nan)},
      {"x", Value::Double(1e-310)},
      // strings: the empty string, prefixes, bytes above 'Z'.
      {"s", Value::String("")},
      {"t", Value::String("ab")},
      {"s", Value::String("abc")},
      {"t", Value::String("a")},
      {"s", Value::String("B")},
      // dates, also from the quoted-string form SQL writes.
      {"d", Value::FromDate(*Date::FromYmd(2008, 1, 10))},
      {"e", Value::String("2008-1-1")},
      {"d", Value::String("2008-1-20")},
  };
  size_t matched = 0;
  for (const Case& c : cases) {
    for (const CompareOp op : kAllOps) {
      const PredicatePtr pred = Predicate::Comparison(c.column, op, c.literal);
      SCOPED_TRACE(pred->ToString());
      const auto bound = BoundPredicate::Bind(pred, t.schema());
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      matched += ExpectBlocksMatchRows(*bound, t);
    }
  }
  EXPECT_GT(matched, 0u);
}

TEST(MatchBlockTest, NanCellComparesEqualLikeValueCompare) {
  // Value::Compare is Sign(x - y), so a NaN difference is "equal": the
  // block compare must not turn it into an unordered FALSE.
  Column x(ValueType::kDouble);
  x.AppendDouble(std::nan(""));
  x.AppendDouble(1.0);
  const Table t = *Table::Make(*Schema::Make({{"x", ValueType::kDouble}}),
                               {std::move(x)});
  const auto eq = BoundPredicate::Bind(
      Predicate::Comparison("x", CompareOp::kEq, Value::Double(5.0)),
      t.schema());
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(eq->Matches(t, 0));
  uint8_t out[2] = {7, 7};
  BoundPredicate::Scratch scratch;
  eq->MatchBlock(t, nullptr, 0, 2, out, &scratch);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 0);
}

TEST(MatchBlockTest, ThreeValuedTreesMatchRows) {
  const Table t = OracleTable();
  // Comparisons over the NULL-bearing columns are UNKNOWN on NULL rows.
  const PredicatePtr a =
      Predicate::Comparison("i", CompareOp::kGt, Value::Int64(0));
  const PredicatePtr b =
      Predicate::Comparison("x", CompareOp::kLe, Value::Double(1.5));
  const PredicatePtr c =
      Predicate::Comparison("s", CompareOp::kLt, Value::String("ab"));
  const PredicatePtr d = Predicate::Comparison(
      "d", CompareOp::kNe, Value::String("2008-1-7"));
  const PredicatePtr j =
      Predicate::Comparison("j", CompareOp::kEq, Value::Int64(1));
  const std::vector<PredicatePtr> trees = {
      Predicate::True(),
      Predicate::Not(a),
      Predicate::And(a, b),
      Predicate::Or(a, b),
      Predicate::And(Predicate::Not(c), Predicate::Or(d, j)),
      Predicate::Or(Predicate::Not(Predicate::And(a, c)), Predicate::Not(d)),
      Predicate::Not(Predicate::Not(Predicate::Or(b, Predicate::True()))),
  };
  for (const PredicatePtr& tree : trees) {
    SCOPED_TRACE(tree->ToString());
    const auto bound = BoundPredicate::Bind(tree, t.schema());
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ExpectBlocksMatchRows(*bound, t);
  }
}

TEST(MatchBlockTest, TreeOfMoreThanSixteenNodesMatchesRows) {
  const Table t = OracleTable();
  // 25 nodes, alternating AND/OR over NULL-bearing columns, with NOTs.
  PredicatePtr p = Predicate::Comparison("x", CompareOp::kGe, Value::Int64(0));
  for (int k = 0; k < 6; ++k) {
    const PredicatePtr leaf = Predicate::Comparison(
        k % 2 == 0 ? "i" : "s", CompareOp::kNe,
        k % 2 == 0 ? Value::Int64(k) : Value::String("a"));
    p = k % 3 == 0 ? Predicate::And(p, Predicate::Not(leaf))
                   : Predicate::Or(Predicate::Not(p), leaf);
  }
  const auto bound = BoundPredicate::Bind(p, t.schema());
  ASSERT_TRUE(bound.ok());
  std::vector<std::string> attrs;
  p->CollectAttributes(&attrs);
  ASSERT_EQ(attrs.size(), 7u);
  ExpectBlocksMatchRows(*bound, t);
}

TEST(MatchBlockTest, ForEachMatchVisitsTheMatchingRowsInOrder) {
  const Table t = OracleTable();
  const auto bound = BoundPredicate::Bind(
      Predicate::Or(
          Predicate::Comparison("x", CompareOp::kLt, Value::Double(0.5)),
          Predicate::Comparison("s", CompareOp::kEq, Value::String(""))),
      t.schema());
  ASSERT_TRUE(bound.ok());
  std::vector<size_t> expected;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (bound->Matches(t, r)) expected.push_back(r);
  }
  std::vector<size_t> seen;
  bound->ForEachMatch(t, [&](size_t r) { seen.push_back(r); });
  EXPECT_EQ(seen, expected);
  // Matches in the first and in the last (partial) block.
  ASSERT_FALSE(seen.empty());
  EXPECT_LT(seen.front(), kBlock);
  EXPECT_GE(seen.back(), 2 * kBlock);
}

TEST(MatchBlockTest, EqualityIsSameCompiledNodes) {
  const Table t = OracleTable();
  auto bind = [&](const char* column, Value literal) {
    return *BoundPredicate::Bind(
        Predicate::And(Predicate::Comparison(column, CompareOp::kLt,
                                             std::move(literal)),
                       Predicate::True()),
        t.schema());
  };
  EXPECT_TRUE(bind("x", Value::Double(1.0)) == bind("x", Value::Double(1.0)));
  EXPECT_FALSE(bind("x", Value::Double(1.0)) == bind("y", Value::Double(1.0)));
  EXPECT_FALSE(bind("x", Value::Double(1.0)) == bind("x", Value::Double(2.0)));
  // An int literal is a different compare from the equal double.
  EXPECT_FALSE(bind("i", Value::Int64(1)) == bind("i", Value::Double(1.0)));
}

// ---------------------------------------------------------------------------
// Kleene's tables: MatchBlock's AND, OR and NOT against TriAnd/TriOr/TriNot
// and against the SQL truth tables written out, on all nine pairs of
// {FALSE, TRUE, UNKNOWN}, each side a comparison over an int64, a double or
// a date column that is NULL where the side is UNKNOWN.

constexpr Tri kTruths[] = {Tri::kFalse, Tri::kTrue, Tri::kUnknown};

// Row r holds the pair (kTruths[(r / 3) % 3], kTruths[r % 3]): the left
// columns (suffix _l) are true, false or NULL as the first, the right
// ones (_r) as the second. 27 rows, so that MatchBlock combines whole
// 8-row words and a tail.
Table KleeneTable() {
  TableBuilder builder(*Schema::Make(
      {{"i_l", ValueType::kInt64}, {"x_l", ValueType::kDouble},
       {"d_l", ValueType::kDate}, {"i_r", ValueType::kInt64},
       {"x_r", ValueType::kDouble}, {"d_r", ValueType::kDate}}));
  const Date day = *Date::FromYmd(2008, 1, 2);
  const Date other = *Date::FromYmd(2008, 1, 3);
  auto cells = [&](Tri t) -> std::vector<Value> {
    if (t == Tri::kUnknown) {
      return {Value::Null(), Value::Null(), Value::Null()};
    }
    const bool holds = t == Tri::kTrue;
    return {Value::Int64(holds ? 1 : 0), Value::Double(holds ? 1.5 : -1.5),
            Value::FromDate(holds ? day : other)};
  };
  for (size_t r = 0; r < 27; ++r) {
    std::vector<Value> row = cells(kTruths[(r / 3) % 3]);
    for (Value& v : cells(kTruths[r % 3])) row.push_back(std::move(v));
    EXPECT_TRUE(builder.AppendRow(row).ok());
  }
  return *std::move(builder).Finish();
}

// The truth value of `pred` on every row, read back from MatchBlock: TRUE
// where it matches, FALSE where its negation does, UNKNOWN where neither.
std::vector<Tri> BlockTruths(const PredicatePtr& pred, const Table& t,
                             const uint32_t* ids, size_t n) {
  const BoundPredicate holds = *BoundPredicate::Bind(pred, t.schema());
  const BoundPredicate fails =
      *BoundPredicate::Bind(Predicate::Not(pred), t.schema());
  std::vector<uint8_t> yes(n);
  std::vector<uint8_t> no(n);
  BoundPredicate::Scratch scratch;
  holds.MatchBlock(t, ids, 0, n, yes.data(), &scratch);
  fails.MatchBlock(t, ids, 0, n, no.data(), &scratch);
  std::vector<Tri> out;
  for (size_t k = 0; k < n; ++k) {
    EXPECT_FALSE(yes[k] != 0 && no[k] != 0) << "row " << k;
    out.push_back(yes[k] != 0  ? Tri::kTrue
                  : no[k] != 0 ? Tri::kFalse
                               : Tri::kUnknown);
  }
  return out;
}

TEST(MatchBlockTest, KleeneAndOrNotOnAllNinePairs) {
  // The SQL tables, indexed [left][right] in the order of kTruths.
  constexpr Tri F = Tri::kFalse, T = Tri::kTrue, U = Tri::kUnknown;
  constexpr Tri kAnd[3][3] = {{F, F, F}, {F, T, U}, {F, U, U}};
  constexpr Tri kOr[3][3] = {{F, T, U}, {T, T, T}, {U, T, U}};
  constexpr Tri kNot[3] = {T, F, U};
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_EQ(TriNot(kTruths[a]), kNot[a]);
    for (size_t b = 0; b < 3; ++b) {
      EXPECT_EQ(TriAnd(kTruths[a], kTruths[b]), kAnd[a][b]);
      EXPECT_EQ(TriOr(kTruths[a], kTruths[b]), kOr[a][b]);
    }
  }

  const Table t = KleeneTable();
  const size_t n = t.num_rows();
  std::vector<uint32_t> reversed(n);
  for (size_t k = 0; k < n; ++k) {
    reversed[k] = static_cast<uint32_t>(n - 1 - k);
  }
  auto side = [](const std::string& column) {
    const char type = column[0];
    return Predicate::Comparison(
        column, CompareOp::kEq,
        type == 'i'   ? Value::Int64(1)
        : type == 'x' ? Value::Double(1.5)
                      : Value::String("2008-1-2"));
  };
  size_t checked = 0;
  for (const char* l : {"i_l", "x_l", "d_l"}) {
    for (const char* r : {"i_r", "x_r", "d_r"}) {
      SCOPED_TRACE(std::string(l) + ", " + r);
      const PredicatePtr left = side(l);
      const PredicatePtr right = side(r);
      for (const bool by_id : {false, true}) {
        const uint32_t* ids = by_id ? reversed.data() : nullptr;
        const auto left_truths = BlockTruths(left, t, ids, n);
        const auto ands = BlockTruths(Predicate::And(left, right), t, ids, n);
        const auto ors = BlockTruths(Predicate::Or(left, right), t, ids, n);
        const auto nots = BlockTruths(Predicate::Not(left), t, ids, n);
        for (size_t k = 0; k < n; ++k) {
          const size_t row = by_id ? reversed[k] : k;
          const size_t a = (row / 3) % 3;
          const size_t b = row % 3;
          ASSERT_EQ(left_truths[k], kTruths[a]) << "row " << row;
          EXPECT_EQ(ands[k], TriAnd(kTruths[a], kTruths[b])) << "row " << row;
          EXPECT_EQ(ors[k], TriOr(kTruths[a], kTruths[b])) << "row " << row;
          EXPECT_EQ(nots[k], TriNot(kTruths[a])) << "row " << row;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 9u * 2 * 27);
}

}  // namespace
}  // namespace aqua
