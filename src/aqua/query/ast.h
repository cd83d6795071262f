#ifndef AQUA_QUERY_AST_H_
#define AQUA_QUERY_AST_H_

#include <optional>
#include <string>

#include "aqua/expr/predicate.h"

namespace aqua {

/// The five aggregate operators studied in the paper.
enum class AggregateFunction { kCount, kSum, kAvg, kMin, kMax };

/// SQL name of `func` ("COUNT", "SUM", ...).
std::string_view AggregateFunctionToString(AggregateFunction func);

/// The one rule for which column types `func` aggregates: SUM/AVG need a
/// numeric column (kInvalidArgument), and no aggregate runs over a string
/// column (kUnimplemented). `attribute` is the column named in the message,
/// which starts with `context` ("" or "HAVING ").
Status CheckAggregatedType(AggregateFunction func, const std::string& attribute,
                           ValueType type, std::string_view context = "");

/// A HAVING filter on grouped queries: keep groups whose value of
/// `func([DISTINCT] attribute)` compares to `literal` under `op`, e.g.
/// `HAVING COUNT(*) > 5`. The HAVING aggregate may differ from the
/// SELECT aggregate.
struct HavingClause {
  AggregateFunction func = AggregateFunction::kCount;
  std::string attribute;  // empty for COUNT(*)
  bool distinct = false;
  CompareOp op = CompareOp::kGt;
  Value literal;

  std::string ToString() const;
};

/// A single-table aggregate query:
///
///   SELECT Agg([DISTINCT] A | *) FROM T [WHERE C] [GROUP BY B]
///
/// This is the query class of the paper (§II: aggregates over a single
/// table, or over the result of an SPJ query on the certain part of the
/// schema). Attribute names refer to the *target* (mediated) schema; the
/// reformulator rewrites them to source-schema names per mapping.
struct AggregateQuery {
  AggregateFunction func = AggregateFunction::kCount;

  /// Aggregated attribute; empty means COUNT(*). Only COUNT may leave it
  /// empty.
  std::string attribute;

  /// DISTINCT inside the aggregate (the paper's Q2 uses MAX(DISTINCT ...)).
  bool distinct = false;

  /// Relation named in FROM.
  std::string relation;

  /// Selection condition; `Predicate::True()` when absent. Never null once
  /// validated.
  PredicatePtr where;

  /// GROUP BY attribute; empty when ungrouped.
  std::string group_by;

  /// Optional HAVING filter; only valid on grouped queries. Supported by
  /// the deterministic executor and the by-table semantics (each candidate
  /// mapping filters its own groups); under by-tuple semantics group
  /// membership itself becomes probabilistic and the engine reports
  /// kUnimplemented.
  std::optional<HavingClause> having;

  /// Checks structural validity: non-empty relation, an attribute unless
  /// COUNT(*), a non-null predicate.
  Status Validate() const;

  /// Round-trippable SQL rendering.
  std::string ToString() const;
};

/// The paper's nested form (its query Q2):
///
///   SELECT OuterAgg(x) FROM
///     (SELECT InnerAgg([DISTINCT] A) FROM T WHERE C GROUP BY B) AS R
///
/// The inner query must be grouped; the outer aggregate ranges over the
/// per-group inner results.
struct NestedAggregateQuery {
  AggregateFunction outer = AggregateFunction::kAvg;
  AggregateQuery inner;

  Status Validate() const;
  std::string ToString() const;
};

}  // namespace aqua

#endif  // AQUA_QUERY_AST_H_
