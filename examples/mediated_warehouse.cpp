// The paper's introduction scenario: company A acquires company B and must
// answer HR questions over B's employee database before anyone has
// confirmed the schema mapping. The matcher emitted several candidate
// mappings with confidence scores; this example shows the full workflow:
//
//   1. load the matcher output from its text format,
//   2. register source tables with a Mediator,
//   3. answer aggregate SQL against the mediated schema,
//   4. summarise an exponential-support distribution with the CLT.

#include <cstdio>

#include "aqua/common/random.h"
#include "aqua/core/clt.h"
#include "aqua/core/mediator.h"
#include "aqua/mapping/serialize.h"
#include "aqua/query/parser.h"
#include "aqua/workload/employees.h"

using namespace aqua;

int main() {
  // 1. Matcher output, as it would live in a reviewed config file.
  const char* matcher_output = R"(
# schema matcher scores for companyB.employees -> hr.employees
pmapping employees_b => employees
candidate 0.55: emp_id -> id, dept -> department, pay_with_bonus -> salary, hired -> startDate
candidate 0.30: emp_id -> id, dept -> department, base_pay -> salary, hired -> startDate
candidate 0.10: emp_id -> id, dept -> department, total_comp -> salary, hired -> startDate
candidate 0.05: emp_id -> id, dept -> department, pay_with_bonus -> salary, role_start -> startDate
)";
  const auto schema_pm = PMappingText::ParseSchema(matcher_output);
  if (!schema_pm.ok()) {
    std::printf("failed to parse matcher output: %s\n",
                schema_pm.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded schema p-mapping:\n%s\n",
              PMappingText::FormatSchema(*schema_pm).c_str());

  // 2. Register the source data (simulated; see workload/employees.h).
  Mediator mediator;
  Rng rng(1914);
  EmployeesOptions gen;
  gen.num_employees = 50000;
  auto table = GenerateEmployeesTable(gen, rng);
  if (!table.ok() ||
      !mediator.RegisterTable("employees_b", std::move(*table)).ok() ||
      !mediator.SetSchemaPMapping(*schema_pm).ok()) {
    std::printf("mediator setup failed\n");
    return 1;
  }

  // 3. HR questions against the mediated schema.
  const char* questions[] = {
      "SELECT COUNT(*) FROM employees WHERE salary > 150000",
      "SELECT AVG(salary) FROM employees WHERE startDate >= '2005-01-01'",
      "SELECT SUM(salary) FROM employees",
  };
  for (const char* sql : questions) {
    std::printf("%s\n", sql);
    const auto range = mediator.AnswerSql(sql, MappingSemantics::kByTuple,
                                          AggregateSemantics::kRange);
    const auto expected = mediator.AnswerSql(
        sql, MappingSemantics::kByTable, AggregateSemantics::kExpectedValue);
    std::printf("  by-tuple range:    %s\n",
                range.ok() ? range->ToString().c_str()
                           : range.status().ToString().c_str());
    std::printf("  by-table expected: %s\n\n",
                expected.ok() ? expected->ToString().c_str()
                              : expected.status().ToString().c_str());
  }

  // 4. The by-tuple distribution of SUM(salary) has astronomically many
  //    outcomes; the CLT gives exact moments and a credible interval in
  //    one O(n*m) pass.
  const PMapping& full = *(*schema_pm).ForTargetRelation("employees").value();
  const AggregateQuery payroll = *SqlParser::ParseSimple(
      "SELECT SUM(salary) FROM employees");
  const Table& source = **mediator.TableFor("employees_b");
  const auto clt = ByTupleCLT::ApproxSum(payroll, full, source);
  if (clt.ok()) {
    const auto ci = clt->CredibleInterval(0.95);
    std::printf("by-tuple payroll distribution (CLT): mean %.0f, stddev %.0f\n",
                clt->mean, clt->stddev());
    if (ci.ok()) {
      std::printf("  95%% credible interval: %s\n", ci->ToString().c_str());
    }
  }
  return 0;
}
