#include "aqua/mapping/serialize.h"

#include <gtest/gtest.h>

#include "aqua/common/failpoint.h"
#include "aqua/workload/ebay.h"
#include "aqua/workload/real_estate.h"
#include "aqua/workload/synthetic.h"

namespace aqua {
namespace {

TEST(PMappingTextTest, FormatIsReadable) {
  const std::string text = PMappingText::Format(*MakeRealEstatePMapping());
  EXPECT_NE(text.find("pmapping S1 => T1"), std::string::npos);
  EXPECT_NE(text.find("candidate 0.6:"), std::string::npos);
  EXPECT_NE(text.find("postedDate -> date"), std::string::npos);
}

TEST(PMappingTextTest, RoundTripSingle) {
  // Twenty normalised random probabilities: printed to six significant
  // digits they would lose enough mass for the parsed p-mapping to fail its
  // sum-to-1 check, so every probability must come back bit for bit.
  Rng rng(20);
  SyntheticOptions opts;
  opts.num_tuples = 10;
  opts.num_attributes = 20;
  opts.num_mappings = 20;
  for (const PMapping& original :
       {*MakeEbayPMapping(), GenerateSyntheticWorkload(opts, rng)->pmapping}) {
    const auto parsed = PMappingText::Parse(PMappingText::Format(original));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_TRUE(parsed->mapping(i) == original.mapping(i));
      EXPECT_EQ(parsed->probability(i), original.probability(i)) << i;
    }
  }
}

TEST(PMappingTextTest, RoundTripSchema) {
  const SchemaPMapping original = *SchemaPMapping::Make(
      {*MakeRealEstatePMapping(), *MakeEbayPMapping()});
  const auto parsed =
      PMappingText::ParseSchema(PMappingText::FormatSchema(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(parsed->ForTargetRelation("T1").ok());
  EXPECT_TRUE(parsed->ForTargetRelation("T2").ok());
}

TEST(PMappingTextTest, ParsesHandWrittenInput) {
  const char* text = R"(
# matcher output, reviewed 2008-06-27
pmapping S1 => T1
candidate 0.6: ID -> propertyID, postedDate -> date
candidate 0.4: ID -> propertyID, reducedDate -> date
)";
  const auto pm = PMappingText::Parse(text);
  ASSERT_TRUE(pm.ok()) << pm.status().ToString();
  EXPECT_EQ(pm->size(), 2u);
  EXPECT_EQ(*pm->mapping(1).SourceFor("date"), "reducedDate");
  EXPECT_TRUE(pm->IsCertainTarget("propertyID"));
}

TEST(PMappingTextTest, ParseErrors) {
  // candidate before header
  EXPECT_FALSE(PMappingText::Parse("candidate 1.0: a -> b").ok());
  // missing arrow in header
  EXPECT_FALSE(PMappingText::Parse("pmapping S1 T1\ncandidate 1.0: a -> b")
                   .ok());
  // bad probability
  EXPECT_FALSE(
      PMappingText::Parse("pmapping S => T\ncandidate xx: a -> b").ok());
  // probabilities not summing to one
  EXPECT_FALSE(
      PMappingText::Parse("pmapping S => T\ncandidate 0.5: a -> b").ok());
  // malformed correspondence
  EXPECT_FALSE(
      PMappingText::Parse("pmapping S => T\ncandidate 1.0: a b").ok());
  // duplicate target attribute inside one candidate
  EXPECT_FALSE(PMappingText::Parse(
                   "pmapping S => T\ncandidate 1.0: a -> x, b -> x")
                   .ok());
  // unrecognised statement
  EXPECT_FALSE(PMappingText::Parse("hello world").ok());
  // empty input
  EXPECT_FALSE(PMappingText::Parse("").ok());
  // Parse() requires exactly one block
  EXPECT_FALSE(PMappingText::Parse("pmapping S => T\ncandidate 1.0: a -> b\n"
                                   "pmapping S2 => T2\ncandidate 1.0: c -> d")
                   .ok());
}

TEST(PMappingTextTest, SchemaRejectsRepeatedRelations) {
  const char* text =
      "pmapping S => T\ncandidate 1.0: a -> b\n"
      "pmapping S => T2\ncandidate 1.0: c -> d";
  EXPECT_FALSE(PMappingText::ParseSchema(text).ok());
}

TEST(PMappingTextTest, EmptyCandidateListIsValid) {
  const auto pm =
      PMappingText::Parse("pmapping S => T\ncandidate 1.0:");
  ASSERT_TRUE(pm.ok()) << pm.status().ToString();
  EXPECT_EQ(pm->mapping(0).correspondences().size(), 0u);
}

TEST(PMappingTextTest, FileRoundTrip) {
  const SchemaPMapping original =
      *SchemaPMapping::Make({*MakeEbayPMapping()});
  const std::string path = ::testing::TempDir() + "/aqua_serialize_test.pmap";
  ASSERT_TRUE(PMappingText::WriteSchemaFile(original, path).ok());
  const auto back = PMappingText::ReadSchemaFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back->mapping(0).size(), original.mapping(0).size());
  EXPECT_EQ(back->mapping(0).target_relation(),
            original.mapping(0).target_relation());
}

TEST(PMappingTextTest, InjectedReadFaultSurfacesOnceThenReadsNormally) {
  const std::string path =
      ::testing::TempDir() + "/aqua_serialize_fault_test.pmap";
  ASSERT_TRUE(PMappingText::WriteSchemaFile(
                  *SchemaPMapping::Make({*MakeEbayPMapping()}), path)
                  .ok());
  fault::ScopedFailpoint fp("mapping/serialize/read-file",
                            "once*error(unavailable)");
  ASSERT_TRUE(fp.status().ok());
  // No retry: the caller sees the fault itself.
  const auto first = PMappingText::ReadSchemaFile(path);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  const auto second = PMappingText::ReadSchemaFile(path);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->size(), 1u);
}

TEST(PMappingTextTest, ReadSchemaFileMissingPathIsNotFound) {
  const auto r = PMappingText::ReadSchemaFile("/nonexistent/m.pmap");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace aqua
