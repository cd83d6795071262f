#ifndef LOADBENCH_WORKLOADS_H_
#define LOADBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "answer_check.h"
#include "aqua/common/result.h"
#include "aqua/core/answer.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/query/ast.h"
#include "aqua/storage/table.h"

namespace loadbench {

/// aquad's deadline for a request that names none (ServiceCaps default).
inline constexpr int64_t kServerDefaultDeadlineMs = 2000;

/// aquad's --threads: client and server fit a 4-core box.
inline constexpr int kServerThreads = 2;

/// The kernel entry point that answers a request class; the traced replay
/// times it. kNone for grouped classes, whose kernel runs once per group.
enum class Kernel {
  kNone,
  kRangeCount,
  kRangeSum,
  kRangeAvg,
  kRangeMinMax,
  kExpectedSum,
  kExpectedCount,
  kByTable,
  kCountDist,
  kMinMaxDist,
  kSampler,
};
std::string_view KernelName(Kernel kernel);

/// One distinct request of a workload: a query, its semantics and its
/// deadline, with the reference answer it must get.
struct RequestClass {
  std::string group;  // the request-mix row it belongs to, e.g. "count_dist"
  std::string sql;
  aqua::MappingSemantics mapping = aqua::MappingSemantics::kByTuple;
  aqua::AggregateSemantics semantics = aqua::AggregateSemantics::kRange;
  int64_t deadline_ms = 0;  // 0: not sent; the server default applies
  uint64_t max_steps = 0;   // 0: not sent; no step budget
  Kernel kernel = Kernel::kNone;
  aqua::AggregateQuery query;  // `sql`, parsed
  std::string body;            // POST /query JSON body
  std::string request;         // the full HTTP request as sent
  Reference reference;

  bool grouped() const { return !query.group_by.empty(); }
  int64_t EffectiveDeadlineMs() const {
    return deadline_ms > 0 ? deadline_ms : kServerDefaultDeadlineMs;
  }
};

/// A generated workload: the source table and p-mapping aquad serves, the
/// request classes with their reference answers, and the request stream.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  aqua::Table table;
  aqua::PMapping pmapping;
  std::string schema_spec;  // aquad's --schema
  std::string csv_path;
  std::string mapping_path;
  std::string attribute;    // aggregated by SUM/AVG/MIN/MAX requests
  std::string group_by;     // the GROUP BY attribute of grouped requests
  size_t distinct_groups = 0;
  std::vector<RequestClass> classes;
  /// Class index of each request, in send order (cycled when exhausted).
  std::vector<uint32_t> stream;
};

inline constexpr std::string_view kWorkloadNames[] = {"scan", "dist", "small"};

/// Generates workload `name` from `seed`: writes the CSV and p-mapping to
/// `dir`, reads them back exactly as aquad will, draws the request classes
/// and the stream, and computes every class's reference answer with the
/// engine at threads=1. The same seed gives the same workload.
aqua::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                    const std::string& dir);

}  // namespace loadbench

#endif  // LOADBENCH_WORKLOADS_H_
