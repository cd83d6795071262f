// aqua_gen — emit a simulated workload as a CSV file plus a matching
// p-mapping text file, ready for aqua_cli.
//
//   aqua_gen --workload ebay|realestate|employees|synthetic
//            --out-data <csv> --out-mapping <pmapping.txt>
//            [--rows N] [--mappings L] [--seed S] [--help]
//
// For `synthetic`, --rows is the tuple count and --mappings the number of
// candidate mappings; the other workloads use --rows as their natural size
// knob (auctions / properties / employees).

#include <cstdio>
#include <fstream>
#include <string>

#include "aqua/mapping/serialize.h"
#include "aqua/storage/csv.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/employees.h"
#include "aqua/workload/real_estate.h"
#include "aqua/workload/synthetic.h"

namespace {

using namespace aqua;

struct GenOptions {
  std::string workload;
  std::string out_data;
  std::string out_mapping;
  size_t rows = 1000;
  size_t mappings = 2;
  uint64_t seed = 42;
  bool help = false;
};

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --workload ebay|realestate|employees|synthetic "
               "--out-data <csv> --out-mapping <txt> [--rows N] "
               "[--mappings L] [--seed S] [--help]\n",
               argv0);
}

int Usage(const char* argv0) {
  PrintUsage(stderr, argv0);
  return 2;
}

Result<GenOptions> ParseArgs(int argc, char** argv) {
  GenOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for " + arg);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      o.help = true;
      return o;
    } else if (arg == "--workload") {
      AQUA_ASSIGN_OR_RETURN(o.workload, next());
    } else if (arg == "--out-data") {
      AQUA_ASSIGN_OR_RETURN(o.out_data, next());
    } else if (arg == "--out-mapping") {
      AQUA_ASSIGN_OR_RETURN(o.out_mapping, next());
    } else if (arg == "--rows") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      o.rows = static_cast<size_t>(std::stoul(v));
    } else if (arg == "--mappings") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      o.mappings = static_cast<size_t>(std::stoul(v));
    } else if (arg == "--seed") {
      AQUA_ASSIGN_OR_RETURN(std::string v, next());
      o.seed = std::stoull(v);
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  if (o.workload.empty() || o.out_data.empty() || o.out_mapping.empty()) {
    return Status::InvalidArgument(
        "--workload, --out-data, and --out-mapping are required");
  }
  return o;
}

struct Generated {
  Table table;
  PMapping pmapping;
  std::string hint;  // example query for the banner
};

Result<Generated> Generate(const GenOptions& o) {
  Rng rng(o.seed);
  if (o.workload == "ebay") {
    EbayOptions opts;
    opts.num_auctions = o.rows;
    opts.seed = o.seed;
    AQUA_ASSIGN_OR_RETURN(Table t, GenerateEbayTable(opts, rng));
    AQUA_ASSIGN_OR_RETURN(PMapping pm, MakeEbayPMapping());
    return Generated{std::move(t), std::move(pm),
                     "SELECT MAX(DISTINCT price) FROM T2 GROUP BY auctionId"};
  }
  if (o.workload == "realestate") {
    RealEstateOptions opts;
    opts.num_properties = o.rows;
    opts.seed = o.seed;
    AQUA_ASSIGN_OR_RETURN(Table t, GenerateRealEstateTable(opts, rng));
    AQUA_ASSIGN_OR_RETURN(PMapping pm, MakeRealEstatePMapping());
    return Generated{std::move(t), std::move(pm),
                     "SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'"};
  }
  if (o.workload == "employees") {
    EmployeesOptions opts;
    opts.num_employees = o.rows;
    opts.seed = o.seed;
    AQUA_ASSIGN_OR_RETURN(Table t, GenerateEmployeesTable(opts, rng));
    AQUA_ASSIGN_OR_RETURN(PMapping pm, MakeEmployeesPMapping());
    return Generated{std::move(t), std::move(pm),
                     "SELECT AVG(salary) FROM employees"};
  }
  if (o.workload == "synthetic") {
    SyntheticOptions opts;
    opts.num_tuples = o.rows;
    opts.num_mappings = o.mappings;
    opts.num_attributes = std::max<size_t>(o.mappings, 20);
    opts.seed = o.seed;
    AQUA_ASSIGN_OR_RETURN(SyntheticWorkload w,
                          GenerateSyntheticWorkload(opts, rng));
    return Generated{std::move(w.table), std::move(w.pmapping),
                     "SELECT SUM(value) FROM T WHERE value < 750"};
  }
  return Status::InvalidArgument("unknown workload '" + o.workload + "'");
}

std::string SchemaSpec(const Schema& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += ',';
    out += schema.attribute(i).name;
    out += ':';
    out += ValueTypeToString(schema.attribute(i).type);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return Usage(argv[0]);
  }
  if (options->help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  const auto generated = Generate(*options);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  const Status csv = Csv::WriteFile(generated->table, options->out_data);
  if (!csv.ok()) {
    std::fprintf(stderr, "%s\n", csv.ToString().c_str());
    return 1;
  }
  std::ofstream mapping_out(options->out_mapping);
  if (!mapping_out) {
    std::fprintf(stderr, "cannot open '%s'\n", options->out_mapping.c_str());
    return 1;
  }
  mapping_out << PMappingText::Format(generated->pmapping);
  mapping_out.close();

  std::printf("wrote %zu rows to %s\n", generated->table.num_rows(),
              options->out_data.c_str());
  std::printf("wrote %zu-candidate p-mapping to %s\n",
              generated->pmapping.size(), options->out_mapping.c_str());
  std::printf("try:\n  aqua_cli --data %s \\\n"
              "           --schema \"%s\" \\\n"
              "           --mapping %s \\\n"
              "           --query \"%s\"\n",
              options->out_data.c_str(),
              SchemaSpec(generated->table.schema()).c_str(),
              options->out_mapping.c_str(), generated->hint.c_str());
  return 0;
}
