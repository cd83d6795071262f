#include "aqua/core/by_table.h"

#include <map>
#include <optional>
#include <string>

#include "aqua/common/string_util.h"
#include "aqua/core/tuple_scan.h"
#include "aqua/obs/trace.h"
#include "aqua/query/executor.h"
#include "aqua/reformulate/reformulator.h"

namespace aqua {
namespace {

/// Charges one per-mapping executor pass over `source` (one step per row)
/// and polls the deadline and cancellation before it runs.
Status ChargeScan(ExecContext* ctx, const Table& source) {
  AQUA_RETURN_NOT_OK(ExecCharge(ctx, source.num_rows()));
  return ExecCheckNow(ctx);
}

/// The key that aligns a group across mappings. A double keys by its
/// round-trip text, not by `ToString`'s 6-digit label, so distinct doubles
/// never share a group; int64 5 and double 5.0 still share the key "5".
std::string GroupKey(const Value& group) {
  return group.type() == ValueType::kDouble
             ? FormatDoubleRoundTrip(group.dbl())
             : group.ToString();
}

}  // namespace

Result<AggregateAnswer> ByTable::CombineResults(
    const std::vector<double>& results, const std::vector<double>& probs,
    AggregateSemantics semantics) {
  if (results.empty()) {
    return Status::InvalidArgument("no per-mapping results to combine");
  }
  if (results.size() != probs.size()) {
    return Status::InvalidArgument("results/probabilities size mismatch");
  }
  switch (semantics) {
    case AggregateSemantics::kRange: {
      Interval range = Interval::Point(results[0]);
      for (double r : results) {
        range = Interval::Hull(range, Interval::Point(r));
      }
      return AggregateAnswer::MakeRange(range);
    }
    case AggregateSemantics::kDistribution: {
      Distribution d;
      for (size_t i = 0; i < results.size(); ++i) {
        d.AddMass(results[i], probs[i]);
      }
      return AggregateAnswer::MakeDistribution(std::move(d));
    }
    case AggregateSemantics::kExpectedValue: {
      double total_mass = 0.0;
      double acc = 0.0;
      for (size_t i = 0; i < results.size(); ++i) {
        acc += results[i] * probs[i];
        total_mass += probs[i];
      }
      if (total_mass <= 0.0) {
        return Status::InvalidArgument("zero total probability mass");
      }
      return AggregateAnswer::MakeExpected(acc / total_mass);
    }
  }
  return Status::Internal("corrupt semantics");
}

Result<AggregateAnswer> ByTable::Answer(const AggregateQuery& query,
                                        const PMapping& pmapping,
                                        const Table& source,
                                        AggregateSemantics semantics,
                                        ExecContext* ctx) {
  obs::TraceSpan span("ByTable::Answer");
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "grouped query passed to ByTable::Answer; use AnswerGrouped");
  }
  AQUA_ASSIGN_OR_RETURN(TupleScan scan,
                        TupleScan::Bind(query, pmapping, source));
  // One executor fold per mapping over its satisfying rows in table order,
  // so each scalar has the bits that mapping's reformulation executes to.
  std::vector<Accumulator> folds(scan.num_mappings(),
                                 Accumulator(query.func, query.distinct));
  AQUA_RETURN_NOT_OK(scan.Run({}, ctx, [&](const TupleBlock& block) {
    for (size_t j = 0; j < block.m(); ++j) {
      folds[j].AddSelected(block.sat(j), block.value(j), block.size());
    }
  }));
  std::vector<double> results;
  results.reserve(folds.size());
  for (size_t i = 0; i < folds.size(); ++i) {
    const std::optional<double> r = folds[i].Finish();
    if (!r.has_value()) {
      return Status::InvalidArgument(
          "aggregate is undefined (empty qualifying set) under candidate "
          "mapping " +
          std::to_string(i) + ": " + pmapping.mapping(i).ToString());
    }
    results.push_back(*r);
  }
  return CombineResults(results, scan.probabilities(), semantics);
}

Result<std::vector<GroupedAnswer>> ByTable::AnswerGrouped(
    const AggregateQuery& query, const PMapping& pmapping,
    const Table& source, AggregateSemantics semantics, ExecContext* ctx) {
  obs::TraceSpan span("ByTable::AnswerGrouped");
  if (query.group_by.empty()) {
    return Status::InvalidArgument(
        "ungrouped query passed to ByTable::AnswerGrouped; use Answer");
  }
  // Aligned per-group accumulation across mappings, keyed by GroupKey.
  struct PerGroup {
    Value group;
    std::vector<double> results;
    std::vector<double> probs;
  };
  std::map<std::string, PerGroup> groups;
  std::vector<std::string> order;  // first-seen group order

  for (size_t i = 0; i < pmapping.size(); ++i) {
    AQUA_ASSIGN_OR_RETURN(
        AggregateQuery reformulated,
        Reformulator::Reformulate(query, pmapping.mapping(i)));
    AQUA_RETURN_NOT_OK(ChargeScan(ctx, source));
    AQUA_ASSIGN_OR_RETURN(std::vector<Executor::GroupResult> rows,
                          Executor::ExecuteGrouped(reformulated, source));
    for (const Executor::GroupResult& row : rows) {
      const std::string key = GroupKey(row.group);
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.group = row.group;
        order.push_back(key);
      }
      it->second.results.push_back(row.value);
      it->second.probs.push_back(pmapping.probability(i));
    }
  }

  std::vector<GroupedAnswer> out;
  out.reserve(order.size());
  for (const std::string& key : order) {
    PerGroup& pg = groups[key];
    AQUA_ASSIGN_OR_RETURN(AggregateAnswer answer,
                          CombineResults(pg.results, pg.probs, semantics));
    out.push_back(GroupedAnswer{std::move(pg.group), std::move(answer)});
  }
  return out;
}

Result<AggregateAnswer> ByTable::AnswerNested(
    const NestedAggregateQuery& query, const PMapping& pmapping,
    const Table& source, AggregateSemantics semantics, ExecContext* ctx) {
  obs::TraceSpan span("ByTable::AnswerNested");
  std::vector<double> results;
  std::vector<double> probs;
  results.reserve(pmapping.size());
  for (size_t i = 0; i < pmapping.size(); ++i) {
    AQUA_ASSIGN_OR_RETURN(
        NestedAggregateQuery reformulated,
        Reformulator::ReformulateNested(query, pmapping.mapping(i)));
    AQUA_RETURN_NOT_OK(ChargeScan(ctx, source));
    AQUA_ASSIGN_OR_RETURN(std::optional<double> r,
                          Executor::ExecuteNested(reformulated, source));
    if (!r.has_value()) {
      return Status::InvalidArgument(
          "nested aggregate is undefined under candidate mapping " +
          std::to_string(i));
    }
    results.push_back(*r);
    probs.push_back(pmapping.probability(i));
  }
  return CombineResults(results, probs, semantics);
}

}  // namespace aqua
