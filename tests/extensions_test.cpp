// Tests for the future-work label aliasing extension (§6 future work (c)).
// Deletion handling (§4.6 future work) is the engine's retraction path,
// tested by FeedMutationsTest in drift_test.

#include <gtest/gtest.h>

#include "core/label_alias.h"
#include "core/pipeline.h"
#include "eval/f1.h"
#include "graph/graph_builder.h"

namespace pghive {
namespace {

// ---------- label aliases ----------

TEST(AliasTableTest, ResolveBasics) {
  AliasTable table;
  table.Add("Company", "Organization");
  table.Add("Organisation", "Organization");
  EXPECT_EQ(table.Resolve("Company").value(), "Organization");
  EXPECT_EQ(table.Resolve("Organization").value(), "Organization");
  EXPECT_EQ(table.Resolve("Unrelated").value(), "Unrelated");
}

TEST(AliasTableTest, ChainsResolve) {
  AliasTable table;
  table.Add("Firma", "Company");
  table.Add("Company", "Organization");
  EXPECT_EQ(table.Resolve("Firma").value(), "Organization");
}

TEST(AliasTableTest, CycleDetected) {
  AliasTable table;
  table.Add("A", "B");
  table.Add("B", "A");
  auto r = table.Resolve("A");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AliasTableTest, SelfAliasIgnored) {
  AliasTable table;
  table.Add("X", "X");
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Resolve("X").value(), "X");
}

TEST(AliasTableTest, FromText) {
  auto table = AliasTable::FromText(
      "# integration aliases\n"
      "Company = Organization\n"
      "\n"
      "Organisation=Organization\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 2u);
  EXPECT_EQ(table->Resolve("Company").value(), "Organization");
}

TEST(AliasTableTest, FromTextErrors) {
  EXPECT_FALSE(AliasTable::FromText("no-equals-sign\n").ok());
  EXPECT_FALSE(AliasTable::FromText("=missing\n").ok());
  EXPECT_FALSE(AliasTable::FromText("missing=\n").ok());
}

TEST(ApplyAliasesTest, LabelsRewritten) {
  GraphBuilder b;
  auto n1 = b.Node({"Company"}, {{"name", Value::String("A")}}, "Org");
  auto n2 = b.Node({"Organisation"}, {{"name", Value::String("B")}}, "Org");
  b.Edge(n1, n2, "OWNS", {});
  PropertyGraph g = std::move(b).Build();

  AliasTable table;
  table.Add("Company", "Organization");
  table.Add("Organisation", "Organization");
  auto aliased = ApplyAliases(g, table);
  ASSERT_TRUE(aliased.ok());
  EXPECT_EQ(aliased->node(0).labels, (std::set<std::string>{"Organization"}));
  EXPECT_EQ(aliased->node(1).labels, (std::set<std::string>{"Organization"}));
  // Ground truth untouched.
  EXPECT_EQ(aliased->node(0).truth_type, "Org");
}

TEST(ApplyAliasesTest, IntegrationScenarioUnifiesTypes) {
  // Two sources name the same conceptual type differently; without aliases
  // discovery yields two types, with aliases one.
  GraphBuilder b;
  for (int i = 0; i < 20; ++i) {
    b.Node({"Company"}, {{"name", Value::String("a")}}, "Org");
    b.Node({"Organisation"}, {{"name", Value::String("b")}}, "Org");
  }
  PropertyGraph g = std::move(b).Build();
  PgHivePipeline pipeline;
  auto without = pipeline.DiscoverSchema(g).value();
  EXPECT_EQ(without.node_types.size(), 2u);  // conceptual type split in two

  AliasTable table;
  table.Add("Company", "Organization");
  table.Add("Organisation", "Organization");
  auto aliased = ApplyAliases(g, table).value();
  auto with = pipeline.DiscoverSchema(aliased).value();
  EXPECT_EQ(with.node_types.size(), 1u);
  EXPECT_DOUBLE_EQ(MajorityF1Nodes(aliased, with).f1, 1.0);
}

TEST(ApplyAliasesTest, EmptyTableIsIdentity) {
  PropertyGraph g = MakeFigure1Graph();
  auto out = ApplyAliases(g, AliasTable());
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(out->node(i).labels, g.node(i).labels);
  }
}

}  // namespace
}  // namespace pghive
