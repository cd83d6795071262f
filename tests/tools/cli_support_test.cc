#include "cli_support.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aqua/core/engine.h"
#include "aqua/workload/ebay.h"

namespace aqua::cli {
namespace {

std::vector<std::string> RequiredArgs() {
  return {"--data",  "d.csv", "--schema", "a:int64",
          "--query", "SELECT COUNT(*) FROM t", "--mapping", "m.txt"};
}

TEST(ParseCliArgsTest, RequiredFlagsParse) {
  const auto o = ParseCliArgs(RequiredArgs());
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->data_path, "d.csv");
  EXPECT_EQ(o->schema_spec, "a:int64");
  EXPECT_EQ(o->mapping_path, "m.txt");
  EXPECT_EQ(o->query, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(o->mapping_semantics, MappingSemantics::kByTuple);
  EXPECT_EQ(o->aggregate_semantics, AggregateSemantics::kRange);
  EXPECT_FALSE(o->stats);
  EXPECT_FALSE(o->stats_json);
  EXPECT_TRUE(o->trace_path.empty());
  EXPECT_EQ(o->metrics, MetricsFormat::kOff);
}

TEST(ParseCliArgsTest, MissingRequiredFlagFails) {
  EXPECT_FALSE(ParseCliArgs({"--data", "d.csv"}).ok());
}

TEST(ParseCliArgsTest, EveryValueFlagAcceptsEqualsForm) {
  const auto o = ParseCliArgs(
      {"--data=d.csv", "--schema=a:int64", "--mapping=m.txt",
       "--query=SELECT COUNT(*) FROM t", "--semantics=by-table",
       "--answer=expected", "--histogram=12", "--trace=t.json",
       "--metrics=json", "--timeout-ms=250", "--max-sequences=1024",
       "--degrade=sample"});
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->data_path, "d.csv");
  EXPECT_EQ(o->mapping_semantics, MappingSemantics::kByTable);
  EXPECT_EQ(o->aggregate_semantics, AggregateSemantics::kExpectedValue);
  EXPECT_EQ(o->histogram_bins, 12u);
  EXPECT_EQ(o->trace_path, "t.json");
  EXPECT_EQ(o->metrics, MetricsFormat::kJson);
  EXPECT_EQ(o->engine.limits.timeout_ms, 250);
  EXPECT_EQ(o->engine.naive.max_sequences, 1024u);
  EXPECT_EQ(o->engine.degrade, DegradePolicy::kSample);
}

TEST(ParseCliArgsTest, SpaceAndEqualsFormsAgree) {
  auto space = RequiredArgs();
  space.insert(space.end(), {"--semantics", "by-table", "--answer",
                             "distribution", "--degrade", "off"});
  auto equals = RequiredArgs();
  equals.insert(equals.end(),
                {"--semantics=by-table", "--answer=distribution",
                 "--degrade=off"});
  const auto a = ParseCliArgs(space);
  const auto b = ParseCliArgs(equals);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->mapping_semantics, b->mapping_semantics);
  EXPECT_EQ(a->aggregate_semantics, b->aggregate_semantics);
  EXPECT_EQ(a->engine.degrade, b->engine.degrade);
}

TEST(ParseCliArgsTest, EqualsValueMayContainEquals) {
  auto args = RequiredArgs();
  // Only the first '=' splits flag from value.
  args.push_back("--query=SELECT COUNT(*) FROM t WHERE a = 1");
  const auto o = ParseCliArgs(args);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o->query, "SELECT COUNT(*) FROM t WHERE a = 1");
}

TEST(ParseCliArgsTest, BooleanFlagsRejectValues) {
  for (const char* bad : {"--explain=yes", "--stats=1", "--stats-json=true"}) {
    auto args = RequiredArgs();
    args.push_back(bad);
    EXPECT_FALSE(ParseCliArgs(args).ok()) << bad;
  }
  auto args = RequiredArgs();
  args.insert(args.end(), {"--explain", "--stats", "--stats-json"});
  const auto o = ParseCliArgs(args);
  ASSERT_TRUE(o.ok());
  EXPECT_TRUE(o->explain);
  EXPECT_TRUE(o->stats);
  EXPECT_TRUE(o->stats_json);
}

TEST(ParseCliArgsTest, UnknownFlagAndBadValuesFail) {
  auto unknown = RequiredArgs();
  unknown.push_back("--frobnicate");
  EXPECT_FALSE(ParseCliArgs(unknown).ok());
  for (const char* bad :
       {"--semantics=sideways", "--answer=maybe", "--metrics=xml",
        "--degrade=never", "--histogram=three", "--timeout-ms=-5",
        "--max-sequences=-1"}) {
    auto args = RequiredArgs();
    args.push_back(bad);
    EXPECT_FALSE(ParseCliArgs(args).ok()) << bad;
  }
}

TEST(ParseCliArgsTest, DanglingValueFlagFails) {
  auto args = RequiredArgs();
  args.push_back("--trace");
  EXPECT_FALSE(ParseCliArgs(args).ok());
}

TEST(ParseCliArgsTest, ThreadsFlag) {
  // Default: 0 = hardware concurrency.
  const auto defaulted = ParseCliArgs(RequiredArgs());
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->engine.threads, 0);

  auto args = RequiredArgs();
  args.insert(args.end(), {"--threads", "4"});
  const auto o = ParseCliArgs(args);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->engine.threads, 4);

  auto equals = RequiredArgs();
  equals.push_back("--threads=1");
  const auto e = ParseCliArgs(equals);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->engine.threads, 1);

  for (const char* bad : {"--threads=-1", "--threads=two"}) {
    auto bad_args = RequiredArgs();
    bad_args.push_back(bad);
    EXPECT_FALSE(ParseCliArgs(bad_args).ok()) << bad;
  }
}

TEST(ParseCliArgsTest, ShardsFlag) {
  // Default: 1 = sharding off.
  const auto defaulted = ParseCliArgs(RequiredArgs());
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->engine.shards, 1);

  auto args = RequiredArgs();
  args.insert(args.end(), {"--shards", "4"});
  const auto o = ParseCliArgs(args);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->engine.shards, 4);

  auto equals = RequiredArgs();
  equals.push_back("--shards=8");
  const auto e = ParseCliArgs(equals);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->engine.shards, 8);

  // Unlike --threads, 0 is not a valid shard count: there is no
  // "hardware shards" default to fall back to.
  for (const char* bad : {"--shards=0", "--shards=-2", "--shards=many"}) {
    auto bad_args = RequiredArgs();
    bad_args.push_back(bad);
    EXPECT_FALSE(ParseCliArgs(bad_args).ok()) << bad;
  }
}

TEST(ParseSchemaSpecTest, ParsesTypesAndAliases) {
  const auto schema =
      ParseSchemaSpec("id:int64, price:double, name:string, d:date");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_attributes(), 4u);
  EXPECT_FALSE(ParseSchemaSpec("id-without-type").ok());
  EXPECT_FALSE(ParseSchemaSpec("id:quaternion").ok());
}

TEST(AnswerToJsonTest, RangeAnswerShape) {
  AggregateAnswer answer;
  answer.semantics = AggregateSemantics::kRange;
  answer.range = Interval{1.5, 4.0};
  answer.stats.algorithm = "ByTupleRangeCOUNT";
  const std::string json = AnswerToJson(answer);
  EXPECT_NE(json.find("\"semantics\":\"range\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"range\":{\"low\":1.5,\"high\":4}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"approximate\":false"), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{\"algorithm\":\"ByTupleRangeCOUNT\""),
            std::string::npos)
      << json;
}

TEST(AnswerToJsonTest, ExpectedValueAnswerShape) {
  AggregateAnswer answer;
  answer.semantics = AggregateSemantics::kExpectedValue;
  answer.expected_value = 2.25;
  answer.approximate = true;
  answer.note = "sampled";
  const std::string json = AnswerToJson(answer);
  EXPECT_NE(json.find("\"expected\":2.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"approximate\":true"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"sampled\""), std::string::npos);
}

TEST(AnswerToJsonTest, DistributionAnswerShape) {
  AggregateAnswer answer;
  answer.semantics = AggregateSemantics::kDistribution;
  answer.distribution = *Distribution::FromEntries({{1.0, 0.25}, {2.0, 0.75}});
  const std::string json = AnswerToJson(answer);
  EXPECT_NE(json.find("\"distribution\":[[1,0.25],[2,0.75]]"),
            std::string::npos)
      << json;
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// By-table groups share one query's stats, printed once ahead of the
// groups; by-tuple groups each keep their own.
TEST(GroupedToJsonTest, ByTableStatsLeadOnceByTupleStatsStayPerGroup) {
  const Table source = *PaperInstanceDS2();
  const PMapping pmapping = *MakeEbayPMapping();
  const Engine engine;
  const std::string sql = "SELECT MAX(price) FROM T2 GROUP BY auctionId";

  const auto by_table =
      engine.AnswerGroupedSql(sql, pmapping, source, MappingSemantics::kByTable,
                              AggregateSemantics::kRange);
  ASSERT_TRUE(by_table.ok()) << by_table.status().ToString();
  ASSERT_EQ(by_table->size(), 2u);
  const std::string shared = GroupedToJson(*by_table);
  EXPECT_EQ(shared.rfind("\"stats\":{\"algorithm\":", 0), 0u) << shared;
  EXPECT_EQ(Count(shared, "\"stats\":"), 1u) << shared;
  EXPECT_NE(shared.find("\"steps\":" +
                        std::to_string(source.num_rows() * pmapping.size())),
            std::string::npos)
      << shared;
  EXPECT_EQ(Count(shared, "\"group\":"), 2u) << shared;
  EXPECT_NE(shared.find("\"answer\":{\"semantics\":\"range\","),
            std::string::npos)
      << shared;

  const auto by_tuple =
      engine.AnswerGroupedSql(sql, pmapping, source, MappingSemantics::kByTuple,
                              AggregateSemantics::kRange);
  ASSERT_TRUE(by_tuple.ok()) << by_tuple.status().ToString();
  const std::string own = GroupedToJson(*by_tuple);
  EXPECT_EQ(own.rfind("\"groups\":[", 0), 0u) << own;
  EXPECT_EQ(Count(own, "\"stats\":"), by_tuple->size()) << own;
  EXPECT_EQ(GroupedToJson({}), "\"groups\":[]");
}

TEST(ParseCliArgsTest, HelpWaivesRequiredFlags) {
  const auto o = ParseCliArgs({"--help"});
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_TRUE(o->help);
  const auto short_form = ParseCliArgs({"-h"});
  ASSERT_TRUE(short_form.ok());
  EXPECT_TRUE(short_form->help);
}

TEST(ParseCliArgsTest, FailpointFlagIsRepeatable) {
  auto args = RequiredArgs();
  args.push_back("--failpoint=storage/csv/read-file:once*error(unavailable)");
  args.push_back("--failpoint");
  args.push_back("core/engine/exact:delay(5)");
  const auto o = ParseCliArgs(args);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  ASSERT_EQ(o->failpoints.size(), 2u);
  EXPECT_EQ(o->failpoints[0],
            "storage/csv/read-file:once*error(unavailable)");
  EXPECT_EQ(o->failpoints[1], "core/engine/exact:delay(5)");
}

TEST(ParseCliArgsTest, FailpointWithoutColonFails) {
  auto args = RequiredArgs();
  args.push_back("--failpoint=not-a-site-spec");
  EXPECT_FALSE(ParseCliArgs(args).ok());
}

TEST(ParseCliArgsTest, SamplerSeedFlag) {
  auto args = RequiredArgs();
  args.push_back("--sampler-seed=12345");
  const auto o = ParseCliArgs(args);
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o->engine.degrade_sampler.seed, 12345u);

  auto bad = RequiredArgs();
  bad.push_back("--sampler-seed=oops");
  EXPECT_FALSE(ParseCliArgs(bad).ok());
}

}  // namespace
}  // namespace aqua::cli
