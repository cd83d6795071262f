#ifndef AQUA_EXPR_PREDICATE_H_
#define AQUA_EXPR_PREDICATE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aqua/common/result.h"
#include "aqua/common/value.h"
#include "aqua/storage/table.h"

namespace aqua {

class Predicate;
/// Predicates are immutable shared trees; sub-trees can be reused freely
/// across reformulated queries.
using PredicatePtr = std::shared_ptr<const Predicate>;

/// Comparison operator of an atomic predicate `attr OP literal`.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// SQL token for `op` ("=", "<>", "<", "<=", ">", ">=").
std::string_view CompareOpToString(CompareOp op);

/// A boolean selection condition over a single relation: atomic comparisons
/// of an attribute against a literal, combined with AND / OR / NOT.
///
/// This is exactly the condition language the paper's algorithms need (its
/// queries are `SELECT Agg(A) FROM T WHERE C [GROUP BY B]`). Evaluation
/// follows SQL three-valued logic; a row satisfies the predicate only when
/// it evaluates to TRUE (UNKNOWN, from NULLs, filters out).
class Predicate {
 public:
  enum class Kind { kTrue, kComparison, kAnd, kOr, kNot };

  /// The always-true condition (a missing WHERE clause).
  static PredicatePtr True();
  /// `attribute OP literal`.
  static PredicatePtr Comparison(std::string attribute, CompareOp op,
                                 Value literal);
  static PredicatePtr And(PredicatePtr left, PredicatePtr right);
  static PredicatePtr Or(PredicatePtr left, PredicatePtr right);
  static PredicatePtr Not(PredicatePtr operand);

  Kind kind() const { return kind_; }

  /// Valid only for kComparison nodes.
  const std::string& attribute() const { return attribute_; }
  CompareOp op() const { return op_; }
  const Value& literal() const { return literal_; }

  /// Valid only for kAnd/kOr (left, right) and kNot (left).
  const PredicatePtr& left() const { return left_; }
  const PredicatePtr& right() const { return right_; }

  /// Appends the names of all attributes referenced by this tree (with
  /// duplicates) to `out`.
  void CollectAttributes(std::vector<std::string>* out) const;

  /// Returns a tree with every attribute name `a` replaced by `rename(a)`.
  /// Fails (propagating the callback's status) when any attribute cannot be
  /// renamed — e.g. a target attribute with no correspondence under the
  /// chosen mapping.
  static Result<PredicatePtr> RenameAttributes(
      const PredicatePtr& pred,
      const std::function<Result<std::string>(const std::string&)>& rename);

  /// SQL-ish rendering, fully parenthesised.
  std::string ToString() const;

 private:
  Predicate() = default;

  Kind kind_ = Kind::kTrue;
  std::string attribute_;
  CompareOp op_ = CompareOp::kEq;
  Value literal_;
  PredicatePtr left_;
  PredicatePtr right_;
};

/// SQL three-valued truth value.
enum class Tri : uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

/// Kleene's strong three-valued connectives, the SQL rules for AND, OR and
/// NOT: FALSE absorbs AND, TRUE absorbs OR, and UNKNOWN is what is left.
constexpr Tri TriAnd(Tri a, Tri b) {
  if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
  if (a == Tri::kTrue && b == Tri::kTrue) return Tri::kTrue;
  return Tri::kUnknown;
}
constexpr Tri TriOr(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kFalse && b == Tri::kFalse) return Tri::kFalse;
  return Tri::kUnknown;
}
constexpr Tri TriNot(Tri a) {
  if (a == Tri::kUnknown) return Tri::kUnknown;
  return a == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

/// A predicate compiled against a concrete schema: attribute names are
/// resolved to column indices and literals are type-checked, so per-row
/// evaluation does no name lookups or type dispatch on strings.
class BoundPredicate {
 public:
  /// Rows per `MatchBlock` call in the scans built on it.
  static constexpr size_t kBlock = 1024;

  /// Per-node truth values of one block; `MatchBlock` grows it on demand,
  /// so a caller that reuses one across blocks allocates it once.
  using Scratch = std::vector<Tri>;

  /// Resolves every attribute in `pred` against `schema` and checks that
  /// each literal is comparable with its column type.
  static Result<BoundPredicate> Bind(const PredicatePtr& pred,
                                     const Schema& schema);

  /// Three-valued evaluation of row `row` of `table` (whose schema must be
  /// the one the predicate was bound against).
  Tri Eval(const Table& table, size_t row) const;

  /// True iff the row evaluates to TRUE.
  bool Matches(const Table& table, size_t row) const {
    return Eval(table, row) == Tri::kTrue;
  }

  /// `Matches` for the `n` rows `ids[first + i]` (or `first + i` when
  /// `ids` is null): sets `out[i]` to 1 iff row i evaluates to TRUE, else
  /// to 0. Evaluates each node once for the whole block, comparisons as
  /// typed loops over the raw column.
  void MatchBlock(const Table& table, const uint32_t* ids, size_t first,
                  size_t n, uint8_t* out, Scratch* scratch) const;

  /// Calls `fn(row)` for every row of `table` that evaluates to TRUE, in
  /// row order, one `MatchBlock` per `kBlock` rows.
  template <typename Fn>
  void ForEachMatch(const Table& table, Fn&& fn) const {
    uint8_t match[kBlock];
    Scratch scratch;
    for (size_t first = 0; first < table.num_rows(); first += kBlock) {
      const size_t n = std::min(kBlock, table.num_rows() - first);
      MatchBlock(table, /*ids=*/nullptr, first, n, match, &scratch);
      for (size_t i = 0; i < n; ++i) {
        if (match[i] != 0) fn(first + i);
      }
    }
  }

  /// Same compiled nodes, hence the same truth value on every row.
  bool operator==(const BoundPredicate& other) const {
    return root_ == other.root_ && nodes_ == other.nodes_;
  }

 private:
  // How a comparison node relates a cell to its literal, fixed at bind.
  enum class CellCompare : uint8_t {
    kInt64,        // int64 cell, int64 literal: integer order
    kIntToDouble,  // int64 cell, double literal: Sign(double(x) - y)
    kDouble,       // double cell, any numeric literal: Sign(x - double(y))
    kDate,         // day numbers
    kString,       // lexicographic
  };

  // Flattened expression nodes, evaluated by index (children precede
  // parents; the last node is the root).
  struct Node {
    Predicate::Kind kind;
    // kComparison:
    size_t column = 0;
    CompareOp op = CompareOp::kEq;
    Value literal;
    CellCompare compare = CellCompare::kInt64;
    int64_t int_literal = 0;      // kInt64, and kDate's day number
    double double_literal = 0.0;  // kIntToDouble, kDouble
    // kAnd/kOr/kNot:
    int left = -1;
    int right = -1;

    bool operator==(const Node& other) const = default;
  };

  Result<int> Compile(const PredicatePtr& pred, const Schema& schema);

  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace aqua

#endif  // AQUA_EXPR_PREDICATE_H_
