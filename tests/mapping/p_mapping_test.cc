#include "aqua/mapping/p_mapping.h"

#include <gtest/gtest.h>

namespace aqua {
namespace {

RelationMapping Map(const char* src_attr) {
  return *RelationMapping::Make(
      "S1", "T1", {{"ID", "propertyID"}, {src_attr, "date"}});
}

TEST(PMappingTest, BasicConstruction) {
  const auto pm = PMapping::Make(
      {{Map("postedDate"), 0.6}, {Map("reducedDate"), 0.4}});
  ASSERT_TRUE(pm.ok()) << pm.status().ToString();
  EXPECT_EQ(pm->size(), 2u);
  EXPECT_DOUBLE_EQ(pm->probability(0), 0.6);
  EXPECT_DOUBLE_EQ(pm->probability(1), 0.4);
  EXPECT_EQ(pm->source_relation(), "S1");
  EXPECT_EQ(pm->target_relation(), "T1");
  const std::vector<double> probs = pm->probabilities();
  EXPECT_EQ(probs, (std::vector<double>{0.6, 0.4}));
}

TEST(PMappingTest, RejectsEmpty) {
  EXPECT_FALSE(PMapping::Make({}).ok());
}

TEST(PMappingTest, RejectsProbabilitiesNotSummingToOne) {
  EXPECT_FALSE(
      PMapping::Make({{Map("postedDate"), 0.6}, {Map("reducedDate"), 0.5}})
          .ok());
  EXPECT_FALSE(
      PMapping::Make({{Map("postedDate"), 0.3}, {Map("reducedDate"), 0.3}})
          .ok());
}

TEST(PMappingTest, SumErrorShowsTheGap) {
  // A sum just outside the tolerance must not print as "1".
  const auto pm = PMapping::Make(
      {{Map("postedDate"), 0.6}, {Map("reducedDate"), 0.4 - 1e-7}});
  ASSERT_FALSE(pm.ok());
  const std::string msg = pm.status().message();
  EXPECT_EQ(msg.find("sum to 1,"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sum to 0.99999989"), std::string::npos) << msg;
}

TEST(PMappingTest, ToleranceOnSum) {
  EXPECT_TRUE(PMapping::Make({{Map("postedDate"), 0.6 + 1e-12},
                              {Map("reducedDate"), 0.4}})
                  .ok());
}

TEST(PMappingTest, RejectsOutOfRangeProbability) {
  EXPECT_FALSE(
      PMapping::Make({{Map("postedDate"), 1.4}, {Map("reducedDate"), -0.4}})
          .ok());
}

TEST(PMappingTest, RejectsDuplicateMappings) {
  EXPECT_FALSE(
      PMapping::Make({{Map("postedDate"), 0.6}, {Map("postedDate"), 0.4}})
          .ok());
}

TEST(PMappingTest, RejectsMixedRelations) {
  const RelationMapping other =
      *RelationMapping::Make("S9", "T1", {{"x", "date"}});
  EXPECT_FALSE(PMapping::Make({{Map("postedDate"), 0.6}, {other, 0.4}}).ok());
}

TEST(PMappingTest, SingleCertainMapping) {
  const auto pm = PMapping::Make({{Map("postedDate"), 1.0}});
  ASSERT_TRUE(pm.ok());
  EXPECT_EQ(pm->size(), 1u);
}

TEST(PMappingTest, IsCertainTarget) {
  const auto pm = *PMapping::Make(
      {{Map("postedDate"), 0.6}, {Map("reducedDate"), 0.4}});
  EXPECT_TRUE(pm.IsCertainTarget("propertyID"));  // same in both
  EXPECT_FALSE(pm.IsCertainTarget("date"));       // differs
  EXPECT_TRUE(pm.IsCertainTarget("comments"));    // unmapped in both
}

TEST(PMappingTest, IsCertainTargetMixedPresence) {
  // Mapped under one candidate, unmapped under the other: not certain.
  const RelationMapping with_phone = *RelationMapping::Make(
      "S1", "T1",
      {{"ID", "propertyID"}, {"postedDate", "date"}, {"agentPhone", "phone"}});
  const auto pm =
      *PMapping::Make({{with_phone, 0.5}, {Map("postedDate"), 0.5}});
  EXPECT_FALSE(pm.IsCertainTarget("phone"));
}

TEST(SchemaPMappingTest, LookupByRelation) {
  const auto pm1 = *PMapping::Make(
      {{Map("postedDate"), 0.6}, {Map("reducedDate"), 0.4}});
  const RelationMapping other =
      *RelationMapping::Make("S2", "T2", {{"bid", "price"}});
  const auto pm2 = *PMapping::Make({{other, 1.0}});
  const auto spm = SchemaPMapping::Make({pm1, pm2});
  ASSERT_TRUE(spm.ok());
  EXPECT_EQ(spm->size(), 2u);
  EXPECT_EQ((*spm->ForTargetRelation("T2"))->source_relation(), "S2");
  EXPECT_EQ((*spm->ForSourceRelation("s1"))->target_relation(), "T1");
  EXPECT_FALSE(spm->ForTargetRelation("T9").ok());
  EXPECT_FALSE(spm->ForSourceRelation("S9").ok());
}

TEST(SchemaPMappingTest, RejectsRepeatedRelations) {
  const auto pm1 = *PMapping::Make(
      {{Map("postedDate"), 0.6}, {Map("reducedDate"), 0.4}});
  EXPECT_FALSE(SchemaPMapping::Make({pm1, pm1}).ok());
}

}  // namespace
}  // namespace aqua
