// Tests for the incremental discovery engine and schema merging (§4.6).

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "eval/f1.h"
#include "graph/graph_builder.h"

namespace pghive {
namespace {

TEST(IncrementalTest, SingleBatchMatchesStatic) {
  PropertyGraph g = MakeFigure1Graph();
  IncrementalDiscoverer discoverer;
  ASSERT_TRUE(discoverer.Feed(FullBatch(g)).ok());
  const SchemaGraph& schema = discoverer.Finish(g);
  EXPECT_EQ(schema.node_types.size(), 4u);
  EXPECT_EQ(schema.edge_types.size(), 4u);
  EXPECT_EQ(discoverer.batches_processed(), 1u);
  EXPECT_EQ(discoverer.batch_seconds().size(), 1u);
}

TEST(IncrementalTest, MonotoneChainOnPole) {
  auto g = GenerateGraph(MakePoleSpec(), {}).value();
  IncrementalDiscoverer discoverer;
  SchemaGraph previous;
  for (const auto& batch : SplitIntoBatches(g, 10)) {
    ASSERT_TRUE(discoverer.Feed(batch).ok());
    // S_i ⊑ S_{i+1}: every earlier label/property is still covered.
    EXPECT_TRUE(SchemaCovers(discoverer.schema(), previous));
    previous = discoverer.schema();
  }
  EXPECT_EQ(discoverer.batches_processed(), 10u);
}

TEST(IncrementalTest, FinalSchemaQualityMatchesStatic) {
  auto g = GenerateGraph(MakeLdbcSpec(),
                         GenerateOptions{.num_nodes = 2000,
                                         .num_edges = 6000})
               .value();
  IncrementalDiscoverer discoverer;
  for (const auto& batch : SplitIntoBatches(g, 5)) {
    ASSERT_TRUE(discoverer.Feed(batch).ok());
  }
  const SchemaGraph& schema = discoverer.Finish(g);
  EXPECT_GT(MajorityF1Nodes(g, schema).f1, 0.99);
  EXPECT_GT(MajorityF1Edges(g, schema).f1, 0.95);
}

TEST(IncrementalTest, EveryInstanceAssignedExactlyOnce) {
  auto g = GenerateGraph(MakePoleSpec(),
                         GenerateOptions{.num_nodes = 500, .num_edges = 900})
               .value();
  IncrementalDiscoverer discoverer;
  for (const auto& batch : SplitIntoBatches(g, 4)) {
    ASSERT_TRUE(discoverer.Feed(batch).ok());
  }
  std::vector<int> seen(g.num_nodes(), 0);
  for (const auto& t : discoverer.schema().node_types) {
    for (NodeId id : t.instances) ++seen[id];
  }
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(seen[i], 1) << "node " << i;
  }
}

TEST(IncrementalTest, PostProcessEachBatchOption) {
  IncrementalOptions opt;
  opt.post_process_each_batch = true;
  IncrementalDiscoverer discoverer(opt);
  PropertyGraph g = MakeFigure1Graph();
  ASSERT_TRUE(discoverer.Feed(FullBatch(g)).ok());
  // Constraints filled without calling Finish().
  bool any_constraint = false;
  for (const auto& t : discoverer.schema().node_types) {
    any_constraint |= !t.constraints.empty();
  }
  EXPECT_TRUE(any_constraint);
}

// With post-processing off, Finish and FinishedCopy finalize nothing (as
// the one-shot pipeline does), while the aggregates still fold — the
// retraction path needs them.
TEST(IncrementalTest, NoPostProcessFinishesUnprocessed) {
  auto g = GenerateGraph(MakePoleSpec(),
                         GenerateOptions{.num_nodes = 500, .num_edges = 900})
               .value();
  IncrementalOptions opt;
  opt.pipeline.post_process = false;
  IncrementalDiscoverer discoverer(opt);
  for (const auto& batch : SplitIntoBatches(g, 4)) {
    ASSERT_TRUE(discoverer.Feed(batch).ok());
  }
  const SchemaGraph copy = discoverer.FinishedCopy(g);
  const SchemaGraph& schema = discoverer.Finish(g);
  EXPECT_EQ(SchemaToJson(copy), SchemaToJson(schema));
  ASSERT_FALSE(schema.edge_types.empty());
  for (const auto& t : schema.node_types) {
    EXPECT_TRUE(t.constraints.empty()) << t.name;
  }
  for (const auto& t : schema.edge_types) {
    EXPECT_TRUE(t.constraints.empty()) << t.name;
    EXPECT_EQ(t.cardinality, SchemaCardinality::kUnknown) << t.name;
    EXPECT_EQ(t.max_out_degree, 0u) << t.name;
    EXPECT_EQ(t.max_in_degree, 0u) << t.name;
  }
  EXPECT_TRUE(discoverer.aggregates().ConsistentWith(schema));
  EXPECT_EQ(discoverer.aggregates().FoldedInstances(),
            g.num_nodes() + g.num_edges());

  // One batch without post-processing equals the one-shot --no-post run.
  IncrementalDiscoverer single(opt);
  ASSERT_TRUE(single.Feed(FullBatch(g)).ok());
  auto one_shot = PgHivePipeline(opt.pipeline).DiscoverSchema(g);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(SchemaToJson(single.Finish(g)), SchemaToJson(*one_shot));
}

// ---------- MergeSchemas ----------

SchemaGraph SchemaWithNodeType(const std::string& label,
                               std::set<std::string> props) {
  SchemaGraph s;
  SchemaNodeType t;
  t.name = label;
  t.labels = {label};
  t.property_keys = std::move(props);
  t.instances = {0};
  s.node_types.push_back(t);
  return s;
}

TEST(MergeSchemasTest, SameLabelTypesUnion) {
  SchemaGraph s1 = SchemaWithNodeType("Person", {"name"});
  SchemaGraph s2 = SchemaWithNodeType("Person", {"age"});
  SchemaGraph merged = MergeSchemas(s1, s2);
  ASSERT_EQ(merged.node_types.size(), 1u);
  EXPECT_EQ(merged.node_types[0].property_keys,
            (std::set<std::string>{"age", "name"}));
}

TEST(MergeSchemasTest, DistinctLabelsCoexist) {
  SchemaGraph merged = MergeSchemas(SchemaWithNodeType("A", {"x"}),
                                    SchemaWithNodeType("B", {"y"}));
  EXPECT_EQ(merged.node_types.size(), 2u);
}

TEST(MergeSchemasTest, MergedCoversBothInputs) {
  SchemaGraph s1 = SchemaWithNodeType("Person", {"name"});
  SchemaGraph s2 = SchemaWithNodeType("Org", {"url"});
  SchemaGraph merged = MergeSchemas(s1, s2);
  EXPECT_TRUE(SchemaCovers(merged, s1));
  EXPECT_TRUE(SchemaCovers(merged, s2));
}

TEST(MergeSchemasTest, EmptyIdentity) {
  SchemaGraph s = SchemaWithNodeType("T", {"p"});
  SchemaGraph merged = MergeSchemas(s, SchemaGraph());
  EXPECT_EQ(merged.node_types.size(), 1u);
  merged = MergeSchemas(SchemaGraph(), s);
  EXPECT_EQ(merged.node_types.size(), 1u);
}

TEST(MergeSchemasTest, EdgeTypesMergeWithConnectivityUpdate) {
  SchemaGraph s1, s2;
  SchemaEdgeType e1;
  e1.name = "R";
  e1.labels = {"R"};
  e1.source_labels = {"A"};
  e1.target_labels = {"B"};
  e1.instances = {0};
  s1.edge_types.push_back(e1);
  SchemaEdgeType e2 = e1;
  e2.target_labels = {"B"};
  e2.property_keys = {"w"};
  e2.instances = {1};
  s2.edge_types.push_back(e2);
  SchemaGraph merged = MergeSchemas(s1, s2);
  ASSERT_EQ(merged.edge_types.size(), 1u);
  EXPECT_TRUE(merged.edge_types[0].property_keys.count("w"));
  EXPECT_EQ(merged.edge_types[0].instances.size(), 2u);
}

}  // namespace
}  // namespace pghive
