#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>

#include "aqua/common/date.h"
#include "aqua/common/random.h"
#include "aqua/core/engine.h"
#include "aqua/mapping/serialize.h"
#include "aqua/obs/json.h"
#include "aqua/query/executor.h"
#include "aqua/query/parser.h"
#include "aqua/server/json.h"
#include "aqua/storage/csv.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"

namespace loadbench {
namespace {

using aqua::AggregateFunction;
using aqua::AggregateSemantics;
using aqua::MappingSemantics;
using aqua::Result;
using aqua::Status;

constexpr MappingSemantics kTuple = MappingSemantics::kByTuple;
constexpr MappingSemantics kTable = MappingSemantics::kByTable;
constexpr AggregateSemantics kRange = AggregateSemantics::kRange;
constexpr AggregateSemantics kDist = AggregateSemantics::kDistribution;
constexpr AggregateSemantics kExpected = AggregateSemantics::kExpectedValue;

/// One cell of a request-mix row. `select` is the aggregate with `%s` for
/// the aggregated attribute; an empty select rotates over all five
/// aggregates class by class.
struct Template {
  std::string select;
  MappingSemantics mapping;
  AggregateSemantics semantics;
  int64_t deadline_ms = 0;
  bool grouped = false;
  /// False for the open cells, which have no exact answer to compare.
  bool exact = true;
  uint64_t max_steps = 0;
};

/// A request-mix row: its share of the stream and its cells, each drawn
/// `per_template` times with selectivities spread over [0.1, 0.9].
struct MixRow {
  std::string group;
  double share;
  size_t per_template;
  std::vector<Template> templates;
};

/// Builds a WHERE clause of shape `form` whose selectivity is roughly `q`.
using WhereFn = std::function<std::string(size_t form, double q)>;

struct Spec {
  std::string attribute;  // aggregated attribute of SUM/AVG/MIN/MAX
  std::string group_by;   // GROUP BY attribute of grouped cells
  std::vector<size_t> forms;          // WHERE shapes, rotated over classes
  std::vector<size_t> uncertain_forms;  // shapes that touch an uncertain
                                        // attribute (distribution cells)
  std::vector<MixRow> mix;
};

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

template <typename T>
const T& QuantileOf(const std::vector<T>& sorted, double q) {
  const auto i = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(i, sorted.size() - 1)];
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// WHERE clauses over the eBay target T2: `price` is uncertain (bid or
/// currentPrice), `auctionId` and `timeUpdate` are certain.
WhereFn EbayWhere(const aqua::Table& table) {
  std::vector<double> prices = table.column(4).doubles();
  auto sorted = std::make_shared<std::vector<double>>(Sorted(prices));
  const std::vector<int64_t>& ids = table.column(1).ints();
  const double auctions =
      static_cast<double>(*std::max_element(ids.begin(), ids.end()));
  return [sorted, auctions](size_t form, double q) -> std::string {
    auto price = [&](double p) { return Fixed(QuantileOf(*sorted, p), 2); };
    auto auction = [&](double p) {
      return std::to_string(static_cast<int64_t>(std::lround(p * auctions)));
    };
    auto time = [](double p) { return Fixed(3.0 * p, 3); };
    const double r = std::sqrt(q);
    switch (form) {
      case 0: return "price < " + price(q);
      case 1: return "price >= " + price(1 - q);
      case 2: return "auctionId <= " + auction(q);
      case 3: return "timeUpdate > " + time(1 - q);
      case 4: return "price < " + price(r) + " AND auctionId <= " + auction(r);
      default:
        return "price < " + price(q / 2) + " OR timeUpdate < " + time(q / 2);
    }
  };
}

/// WHERE clauses over the real-estate target T1: `date` is uncertain
/// (postedDate or reducedDate); `phone` (a string) and `listPrice` are
/// certain.
WhereFn RealEstateWhere(const aqua::Table& table) {
  std::vector<int32_t> days = table.column(3).date_days();
  std::sort(days.begin(), days.end());
  std::vector<std::string> phones = table.column(2).strings();
  std::sort(phones.begin(), phones.end());
  auto d = std::make_shared<std::vector<int32_t>>(std::move(days));
  auto s = std::make_shared<std::vector<std::string>>(std::move(phones));
  auto l = std::make_shared<std::vector<double>>(
      Sorted(table.column(1).doubles()));
  return [d, s, l](size_t form, double q) -> std::string {
    auto date = [&](double p) {
      return "'" + aqua::Date(QuantileOf(*d, p)).ToString() + "'";
    };
    auto phone = [&](double p) { return "'" + QuantileOf(*s, p) + "'"; };
    auto price = [&](double p) { return Fixed(QuantileOf(*l, p), 2); };
    const double r = std::sqrt(q);
    switch (form) {
      case 0: return "date < " + date(q);
      case 1: return "date >= " + date(1 - q);
      case 2: return "phone < " + phone(q);
      case 3: return "listPrice > " + price(1 - q);
      case 4: return "date < " + date(r) + " AND phone >= " + phone(1 - r);
      default:
        return "date >= " + date(1 - q / 2) + " OR listPrice < " +
               price(q / 2);
    }
  };
}

const char* const kAggregates[] = {"COUNT(*)", "SUM(%s)", "AVG(%s)", "MIN(%s)",
                                   "MAX(%s)"};

Spec ScanSpec() {
  Spec s{"price", "auctionId", {0, 1, 2, 3, 4, 5}, {0, 1, 4, 5}, {}};
  s.mix = {
      {"range", 0.5, 4,
       {{"COUNT(*)", kTuple, kRange}, {"SUM(%s)", kTuple, kRange},
        {"AVG(%s)", kTuple, kRange}, {"MIN(%s)", kTuple, kRange},
        {"MAX(%s)", kTuple, kRange}}},
      {"expected", 0.2, 4,
       {{"SUM(%s)", kTuple, kExpected}, {"COUNT(*)", kTuple, kExpected}}},
      {"by_table", 0.3, 4,
       {{"", kTable, kRange}, {"", kTable, kDist}, {"", kTable, kExpected}}},
  };
  return s;
}

Spec DistSpec() {
  Spec s{"price", "auctionId", {0, 1, 4, 5}, {0, 1, 4, 5}, {}};
  s.mix = {
      {"count_dist", 0.4, 8, {{"COUNT(*)", kTuple, kDist}}},
      {"minmax", 0.2, 2,
       {{"MAX(%s)", kTuple, kDist}, {"MIN(%s)", kTuple, kDist},
        {"MAX(%s)", kTuple, kExpected}, {"MIN(%s)", kTuple, kExpected}}},
      // A step budget about a tenth of the exact DP's n(n+1)/2 steps: the
      // exact pass always overruns it, and the sampler, given a fresh
      // budget of the same size, draws about 400 samples (one step per
      // row each), four times min_samples_on_budget. A step budget, not a
      // deadline, so that neither depends on how fast the machine is.
      {"count_dist_budget", 0.2, 4,
       {{"COUNT(*)", kTuple, kDist, 0, false, true, 4000000}}},
      // Open cells: naive enumeration is refused up front and the sampler
      // runs to the deadline, with over twice min_samples_on_budget even
      // on a machine slowed threefold.
      {"open_sum_avg", 0.2, 2,
       {{"SUM(%s)", kTuple, kDist, 80, false, false},
        {"AVG(%s)", kTuple, kDist, 80, false, false}}},
  };
  return s;
}

Spec SmallSpec() {
  Spec s{"listPrice", "phone", {0, 1, 2, 3, 4, 5}, {0, 1, 4, 5}, {}};
  // The rows are ordered by cost and sized so that the median request
  // falls well inside the cheapest row, not on the step between two rows
  // of different cost, where it would jump between them from seed to seed.
  s.mix = {
      {"ptime", 0.8, 2,
       {{"COUNT(*)", kTuple, kRange}, {"SUM(%s)", kTuple, kRange},
        {"AVG(%s)", kTuple, kRange}, {"MIN(%s)", kTuple, kRange},
        {"MAX(%s)", kTuple, kRange}, {"COUNT(*)", kTuple, kExpected},
        {"SUM(%s)", kTuple, kExpected}, {"", kTable, kRange},
        {"", kTable, kDist}, {"", kTable, kExpected}}},
      {"ptime_sweep", 0.05, 1,
       {{"COUNT(*)", kTuple, kDist}, {"MIN(%s)", kTuple, kDist},
        {"MAX(%s)", kTuple, kDist}, {"MIN(%s)", kTuple, kExpected},
        {"MAX(%s)", kTuple, kExpected}}},
      {"grouped", 0.15, 4,
       {{"COUNT(*)", kTuple, kRange, 0, true},
        {"SUM(%s)", kTuple, kExpected, 0, true},
        {"AVG(%s)", kTable, kDist, 0, true},
        {"COUNT(*)", kTuple, kDist, 0, true},
        {"MAX(%s)", kTable, kRange, 0, true}}},
  };
  return s;
}

Kernel KernelFor(const RequestClass& c) {
  if (c.grouped()) return Kernel::kNone;
  if (c.mapping == kTable) return Kernel::kByTable;
  const AggregateFunction f = c.query.func;
  const bool count = f == AggregateFunction::kCount;
  const bool minmax = f == AggregateFunction::kMin || f == AggregateFunction::kMax;
  switch (c.semantics) {
    case kRange:
      if (count) return Kernel::kRangeCount;
      if (f == AggregateFunction::kSum) return Kernel::kRangeSum;
      return minmax ? Kernel::kRangeMinMax : Kernel::kRangeAvg;
    case kExpected:
      if (count) return Kernel::kExpectedCount;
      if (f == AggregateFunction::kSum) return Kernel::kExpectedSum;
      return minmax ? Kernel::kMinMaxDist : Kernel::kSampler;
    case kDist:
      if (count) return Kernel::kCountDist;
      return minmax ? Kernel::kMinMaxDist : Kernel::kSampler;
  }
  return Kernel::kNone;
}

std::string FormatSelect(const std::string& select, const std::string& attr) {
  std::string out = select;
  if (const size_t at = out.find("%s"); at != std::string::npos) {
    out.replace(at, 2, attr);
  }
  return out;
}

std::string BuildBody(const RequestClass& c) {
  std::string body = "{" + aqua::obs::JsonString("query", c.sql) + "," +
                     aqua::obs::JsonString(
                         "semantics", aqua::MappingSemanticsToString(c.mapping)) +
                     "," +
                     aqua::obs::JsonString(
                         "answer", c.semantics == kExpected
                                       ? "expected"
                                       : aqua::AggregateSemanticsToString(
                                             c.semantics));
  if (c.deadline_ms > 0) {
    body += ",\"deadline_ms\":" + std::to_string(c.deadline_ms);
  }
  if (c.max_steps > 0) {
    body += ",\"max_steps\":" + std::to_string(c.max_steps);
  }
  return body + "}";
}

/// Computes `c.reference` with a serial, ungoverned engine. Fails when the
/// class cannot be answered as the workload needs (e.g. an aggregate that
/// is undefined at the drawn threshold), so the caller redraws it.
Status ComputeReference(const aqua::Table& table, const aqua::PMapping& pm,
                        bool exact, RequestClass* c) {
  aqua::EngineOptions options;
  options.threads = 1;
  const aqua::Engine engine(options);
  if (c->grouped()) {
    AQUA_ASSIGN_OR_RETURN(std::vector<aqua::GroupedAnswer> groups,
                          engine.AnswerGrouped(c->query, pm, table, c->mapping,
                                               c->semantics));
    if (groups.empty()) return Status::InvalidArgument("no groups");
    std::vector<std::pair<std::string, std::string>> rendered;
    for (const aqua::GroupedAnswer& g : groups) {
      rendered.emplace_back(g.group.ToString(),
                            aqua::server::RenderAnswer(g.answer));
    }
    c->reference.exact_groups = std::move(rendered);
    return Status::OK();
  }
  if (exact) {
    AQUA_ASSIGN_OR_RETURN(
        aqua::AggregateAnswer answer,
        engine.Answer(c->query, pm, table, c->mapping, c->semantics));
    if (answer.approximate) return Status::Internal("reference approximate");
    c->reference.exact_answer = aqua::server::RenderAnswer(answer);
  }
  if (c->mapping == kTuple) {
    AQUA_ASSIGN_OR_RETURN(aqua::AggregateAnswer range,
                          engine.Answer(c->query, pm, table, kTuple, kRange));
    c->reference.range = range.range;
  }
  return Status::OK();
}

Result<RequestClass> DrawClass(const Spec& spec, const std::string& group,
                               const Template& t, size_t cls, double q,
                               size_t form, const WhereFn& where,
                               const aqua::Table& table,
                               const aqua::PMapping& pm) {
  RequestClass c;
  c.group = group;
  c.mapping = t.mapping;
  c.semantics = t.semantics;
  c.deadline_ms = t.deadline_ms;
  c.max_steps = t.max_steps;
  const std::string select = t.select.empty()
                                 ? kAggregates[cls % std::size(kAggregates)]
                                 : t.select;
  c.sql = "SELECT " + FormatSelect(select, spec.attribute) + " FROM " +
          pm.mapping(0).target_relation() + " WHERE " + where(form, q);
  if (t.grouped) c.sql += " GROUP BY " + spec.group_by;
  AQUA_ASSIGN_OR_RETURN(aqua::ParsedQuery parsed, aqua::SqlParser::Parse(c.sql));
  c.query = std::move(parsed.simple);
  c.kernel = KernelFor(c);
  c.body = BuildBody(c);
  c.request = "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(c.body.size()) + "\r\n\r\n" + c.body;
  AQUA_RETURN_NOT_OK(ComputeReference(table, pm, t.exact, &c));
  return c;
}

std::string SchemaSpec(const aqua::Schema& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += ',';
    out += schema.attribute(i).name + ":" +
           std::string(aqua::ValueTypeToString(schema.attribute(i).type));
  }
  return out;
}

struct Generated {
  aqua::Table table;
  aqua::PMapping pmapping;
  Spec spec;
};

Result<Generated> Generate(std::string_view name, uint64_t seed) {
  aqua::Rng rng(seed);
  if (name == "scan" || name == "dist") {
    aqua::EbayOptions options;
    options.num_auctions = name == "scan" ? 20000 : 1129;
    options.seed = seed;
    AQUA_ASSIGN_OR_RETURN(aqua::Table table,
                          aqua::GenerateEbayTable(options, rng));
    AQUA_ASSIGN_OR_RETURN(aqua::PMapping pm, aqua::MakeEbayPMapping());
    return Generated{std::move(table), std::move(pm),
                     name == "scan" ? ScanSpec() : DistSpec()};
  }
  if (name == "small") {
    aqua::RealEstateOptions options;
    options.num_properties = 500;
    options.seed = seed;
    AQUA_ASSIGN_OR_RETURN(aqua::Table table,
                          aqua::GenerateRealEstateTable(options, rng));
    AQUA_ASSIGN_OR_RETURN(aqua::PMapping pm, aqua::MakeRealEstatePMapping());
    return Generated{std::move(table), std::move(pm), SmallSpec()};
  }
  return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                 "' (expected scan, dist or small)");
}

}  // namespace

std::string_view KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kNone: return "none";
    case Kernel::kRangeCount: return "range_count";
    case Kernel::kRangeSum: return "range_sum";
    case Kernel::kRangeAvg: return "range_avg";
    case Kernel::kRangeMinMax: return "range_minmax";
    case Kernel::kExpectedSum: return "expected_sum";
    case Kernel::kExpectedCount: return "expected_count";
    case Kernel::kByTable: return "by_table";
    case Kernel::kCountDist: return "count_dist";
    case Kernel::kMinMaxDist: return "minmax_dist";
    case Kernel::kSampler: return "sampler";
  }
  return "none";
}

Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                              const std::string& dir) {
  AQUA_ASSIGN_OR_RETURN(Generated gen, Generate(name, seed));
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  w.schema_spec = SchemaSpec(gen.table.schema());
  const std::string stem = dir + "/" + w.name + "-" + std::to_string(seed);
  w.csv_path = stem + ".csv";
  w.mapping_path = stem + ".pmapping";
  AQUA_RETURN_NOT_OK(aqua::Csv::WriteFile(gen.table, w.csv_path));
  {
    std::ofstream out(w.mapping_path);
    out << aqua::PMappingText::Format(gen.pmapping);
    if (!out) return Status::Unavailable("cannot write " + w.mapping_path);
  }
  // Serve and check against the bytes aquad will load, not the generator's
  // in-memory table: the CSV round trip is part of the program.
  AQUA_ASSIGN_OR_RETURN(w.table,
                        aqua::Csv::ReadFile(w.csv_path, gen.table.schema()));
  AQUA_ASSIGN_OR_RETURN(aqua::SchemaPMapping schema_mapping,
                        aqua::PMappingText::ReadSchemaFile(w.mapping_path));
  w.pmapping = schema_mapping.mapping(0);

  const Spec& spec = gen.spec;
  w.attribute = spec.attribute;
  w.group_by = spec.group_by;
  AQUA_ASSIGN_OR_RETURN(std::string group_source,
                        w.pmapping.mapping(0).SourceFor(spec.group_by));
  AQUA_ASSIGN_OR_RETURN(size_t group_column,
                        w.table.schema().IndexOf(group_source));
  AQUA_ASSIGN_OR_RETURN(aqua::GroupIndex groups,
                        aqua::GroupIndex::Build(w.table, group_column));
  w.distinct_groups = groups.num_groups();

  const WhereFn where =
      w.name == "small" ? RealEstateWhere(w.table) : EbayWhere(w.table);
  aqua::Rng rng(seed ^ 0x5DEECE66DULL);
  std::vector<double> weights;
  for (const MixRow& row : spec.mix) {
    const size_t per_row = row.templates.size() * row.per_template;
    for (size_t t = 0; t < row.templates.size(); ++t) {
      const Template& tmpl = row.templates[t];
      // Distribution cells only get WHERE shapes on an uncertain attribute.
      const std::vector<size_t>& forms =
          tmpl.semantics == kDist ? spec.uncertain_forms : spec.forms;
      for (size_t k = 0; k < row.per_template; ++k) {
        // Stratified selectivity: class k of K gets q near the middle of
        // the k-th of K equal slices of [0.1, 0.9]. Every seed spans the
        // same range with nearly the same costs, so runs on different
        // seeds measure the same work.
        const size_t form = forms[(t + k) % forms.size()];
        Result<RequestClass> drawn = Status::Internal("not drawn");
        for (int attempt = 0; attempt < 8 && !drawn.ok(); ++attempt) {
          const double slice =
              (static_cast<double>(k) + 0.4 + 0.2 * rng.NextDouble()) /
              static_cast<double>(row.per_template);
          const double q = 0.1 + 0.8 * slice;
          drawn = DrawClass(spec, row.group, tmpl, t + k, q, form, where,
                            w.table, w.pmapping);
        }
        if (!drawn.ok()) {
          return Status::Internal("cannot draw a " + row.group +
                                  " class: " + drawn.status().ToString());
        }
        w.classes.push_back(std::move(drawn).value());
        weights.push_back(row.share / static_cast<double>(per_row));
      }
    }
  }

  // The stream is a sequence of blocks, each holding every class in
  // proportion to its weight, shuffled: the mix is exact over every block
  // instead of only on average.
  std::vector<uint32_t> block;
  for (size_t c = 0; c < w.classes.size(); ++c) {
    const long copies = std::max(1L, std::lround(weights[c] * 100.0));
    block.insert(block.end(), static_cast<size_t>(copies),
                 static_cast<uint32_t>(c));
  }
  while (w.stream.size() < 100000) {
    std::shuffle(block.begin(), block.end(), rng);
    w.stream.insert(w.stream.end(), block.begin(), block.end());
  }
  return w;
}

}  // namespace loadbench
