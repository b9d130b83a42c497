// Unit tests for the delta-maintained post-processing aggregates
// (core/aggregates.h): fold equivalence with the rescan oracle
// (tests/rescan_oracle.h), watermark semantics and consistency detection.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/aggregates.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/retraction.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "graph/property_graph.h"
#include "rescan_oracle.h"

namespace pghive {
namespace {

// A mixed-type graph: two node types with overlapping/partial keys, two
// edge types with fan-out/fan-in, plus datatype-join cases (int+double,
// date+timestamp, bool+string).
struct Fixture {
  PropertyGraph graph;
  SchemaGraph schema;

  NodeId AddNode(const std::string& type,
                 std::map<std::string, Value> props) {
    SchemaNodeType* t = nullptr;
    for (auto& nt : schema.node_types) {
      if (nt.name == type) t = &nt;
    }
    if (t == nullptr) {
      SchemaNodeType nt;
      nt.name = type;
      nt.labels = {type};
      schema.node_types.push_back(std::move(nt));
      t = &schema.node_types.back();
    }
    for (const auto& [k, v] : props) t->property_keys.insert(k);
    NodeId id = graph.AddNode({type}, std::move(props));
    t->instances.push_back(id);
    return id;
  }

  void AddEdge(const std::string& type, NodeId src, NodeId dst,
               std::map<std::string, Value> props) {
    SchemaEdgeType* t = nullptr;
    for (auto& et : schema.edge_types) {
      if (et.name == type) t = &et;
    }
    if (t == nullptr) {
      SchemaEdgeType et;
      et.name = type;
      et.labels = {type};
      schema.edge_types.push_back(std::move(et));
      t = &schema.edge_types.back();
    }
    for (const auto& [k, v] : props) t->property_keys.insert(k);
    EdgeId id = graph.AddEdge(src, dst, {type}, std::move(props)).value();
    t->instances.push_back(id);
  }
};

Fixture MakeFixture() {
  Fixture f;
  NodeId p0 = f.AddNode("Person", {{"name", Value::String("ann")},
                                   {"age", Value::Int(30)}});
  NodeId p1 = f.AddNode("Person", {{"name", Value::String("bob")},
                                   {"age", Value::Double(41.5)}});
  NodeId p2 = f.AddNode("Person", {{"name", Value::String("cyd")}});
  NodeId o0 = f.AddNode("Org", {{"founded", Value::Date("2001-04-01")},
                                {"active", Value::Bool(true)}});
  NodeId o1 =
      f.AddNode("Org", {{"founded", Value::Timestamp("2010-05-02T10:00:00")},
                        {"active", Value::String("yes")}});
  f.AddEdge("WORKS_AT", p0, o0, {{"since", Value::Int(2019)}});
  f.AddEdge("WORKS_AT", p1, o0, {});
  f.AddEdge("WORKS_AT", p2, o1, {{"since", Value::Int(2021)}});
  f.AddEdge("KNOWS", p0, p1, {});
  f.AddEdge("KNOWS", p0, p2, {});
  return f;
}

/// A fresh fold of every instance `schema` assigns.
SchemaAggregates FreshFold(const PropertyGraph& g, const SchemaGraph& schema) {
  SchemaAggregates agg;
  EXPECT_TRUE(agg.FoldNew(g, schema));
  return agg;
}

SchemaGraph FinalizeFrom(const Fixture& f, const SchemaAggregates& agg) {
  SchemaGraph s = f.schema;
  FinalizeConstraints(f.graph.symbols(), agg, &s);
  FinalizeDataTypes(f.graph.symbols(), agg, &s);
  FinalizeCardinalities(agg, &s);
  return s;
}

std::string SchemaText(const SchemaGraph& s) {
  std::string out;
  auto constraint_text = [&](const auto& t) {
    out += t.name + "{";
    for (const auto& [key, c] : t.constraints) {
      out += key + ":" + std::to_string(static_cast<int>(c.type)) +
             (c.mandatory ? "!" : "?") + " ";
    }
    out += "}";
  };
  for (const auto& t : s.node_types) constraint_text(t);
  for (const auto& t : s.edge_types) {
    constraint_text(t);
    out += "[" + std::to_string(t.max_out_degree) + "," +
           std::to_string(t.max_in_degree) + "," +
           std::to_string(static_cast<int>(t.cardinality)) + "]";
  }
  return out;
}

TEST(AggregatesTest, FinalizationMatchesRescanPasses) {
  Fixture f = MakeFixture();
  SchemaAggregates agg = FreshFold(f.graph, f.schema);
  ASSERT_TRUE(agg.ConsistentWith(f.schema));
  EXPECT_EQ(SchemaText(FinalizeFrom(f, agg)),
            SchemaText(RescanPostProcess(f.graph, f.schema)));
}

TEST(AggregatesTest, DatatypeJoinsMatchSequentialFold) {
  Fixture f = MakeFixture();
  SchemaGraph s = FinalizeFrom(f, FreshFold(f.graph, f.schema));
  const auto& person = s.node_types[0].constraints;
  EXPECT_EQ(person.at("age").type, DataType::kDouble);    // Int ⊔ Double
  EXPECT_EQ(person.at("name").type, DataType::kString);
  const auto& org = s.node_types[1].constraints;
  EXPECT_EQ(org.at("founded").type, DataType::kTimestamp);  // Date ⊔ Ts
  EXPECT_EQ(org.at("active").type, DataType::kString);      // Bool ⊔ String
  const auto& works = s.edge_types[0];
  EXPECT_EQ(works.constraints.at("since").type, DataType::kInt);
  EXPECT_FALSE(works.constraints.at("since").mandatory);  // 2 of 3
  EXPECT_EQ(works.max_in_degree, 2u);  // o0 has two employees
  EXPECT_EQ(works.max_out_degree, 1u);
  EXPECT_EQ(works.cardinality, SchemaCardinality::kManyToOne);
  const auto& knows = s.edge_types[1];
  EXPECT_EQ(knows.max_out_degree, 2u);  // p0 knows two people
  EXPECT_EQ(knows.cardinality, SchemaCardinality::kOneToMany);
}

TEST(AggregatesTest, IncrementalFoldEqualsOneShotBuild) {
  // Replay the fixture's construction in two stages: aggregates folded
  // after each stage must equal a fresh fold over the final state.
  Fixture staged;
  NodeId p0 = staged.AddNode("Person", {{"name", Value::String("ann")},
                                        {"age", Value::Int(30)}});
  NodeId p1 = staged.AddNode("Person", {{"name", Value::String("bob")},
                                        {"age", Value::Double(41.5)}});
  SchemaAggregates agg;
  EXPECT_TRUE(agg.FoldNew(staged.graph, staged.schema));
  EXPECT_EQ(agg.FoldedInstances(), 2u);

  NodeId p2 = staged.AddNode("Person", {{"name", Value::String("cyd")}});
  NodeId o0 = staged.AddNode("Org", {{"founded", Value::Date("2001-04-01")},
                                     {"active", Value::Bool(true)}});
  NodeId o1 = staged.AddNode(
      "Org", {{"founded", Value::Timestamp("2010-05-02T10:00:00")},
              {"active", Value::String("yes")}});
  staged.AddEdge("WORKS_AT", p0, o0, {{"since", Value::Int(2019)}});
  staged.AddEdge("WORKS_AT", p1, o0, {});
  staged.AddEdge("WORKS_AT", p2, o1, {{"since", Value::Int(2021)}});
  staged.AddEdge("KNOWS", p0, p1, {});
  staged.AddEdge("KNOWS", p0, p2, {});
  EXPECT_TRUE(agg.FoldNew(staged.graph, staged.schema));
  EXPECT_TRUE(agg.ConsistentWith(staged.schema));
  EXPECT_EQ(agg, FreshFold(staged.graph, staged.schema));
}

TEST(AggregatesTest, WatermarkFoldEqualsFreshFold) {
  Fixture f = MakeFixture();
  // Fold the first half of each type's instance list through a truncated
  // schema view, then continue from those watermarks to the full schema.
  SchemaGraph first = f.schema;
  auto halve = [](auto* types) {
    for (auto& t : *types) t.instances.resize(t.instances.size() / 2);
  };
  halve(&first.node_types);
  halve(&first.edge_types);
  SchemaAggregates agg;
  EXPECT_TRUE(agg.FoldNew(f.graph, first));
  EXPECT_TRUE(agg.FoldNew(f.graph, f.schema));
  EXPECT_EQ(agg, FreshFold(f.graph, f.schema));
}

TEST(AggregatesTest, ShrunkInstanceListDetected) {
  Fixture f = MakeFixture();
  SchemaAggregates agg;
  EXPECT_TRUE(agg.FoldNew(f.graph, f.schema));
  SchemaGraph shrunk = f.schema;
  shrunk.node_types[0].instances.pop_back();
  EXPECT_FALSE(agg.ConsistentWith(shrunk));
  EXPECT_FALSE(agg.FoldNew(f.graph, shrunk));
}

// A retraction whose subtraction underflows (the accumulator lost a count
// that the type's instances still carry) refolds the type from its
// survivors: the result equals a fresh fold, and the same deletion over
// untampered aggregates.
TEST(AggregatesTest, RetractionUnderflowRefoldsTheType) {
  GenerateOptions gen;
  gen.num_nodes = 400;
  gen.num_edges = 700;
  PropertyGraph g = GenerateGraph(MakePoleSpec(), gen).value();
  IncrementalDiscoverer discoverer;
  ASSERT_TRUE(discoverer.Feed(FullBatch(g)).ok());

  SchemaGraph schema = discoverer.schema();
  SchemaAggregates tampered = discoverer.aggregates();
  size_t t = 0;
  while (t < schema.edge_types.size() &&
         schema.edge_types[t].instances.size() < 2) {
    ++t;
  }
  ASSERT_LT(t, schema.edge_types.size());
  // An edge: deleting it needs no endpoint-closure bookkeeping, and its
  // type keeps a survivor.
  const EdgeId victim = schema.edge_types[t].instances.front();
  ASSERT_EQ(tampered.edge_types[t].label_set_counts.erase(
                g.edge(victim).label_set),
            1u);
  ASSERT_TRUE(tampered.ConsistentWith(schema));

  RetractionIndex index;
  index.Rebuild(schema);
  RetractionStats stats;
  ASSERT_TRUE(RetractInstances(g, {}, {victim}, &schema, &tampered, &index,
                               &stats)
                  .ok());
  EXPECT_EQ(stats.edges_retracted, 1u);
  EXPECT_EQ(stats.aggregate_rebuilds, 1u);
  TypeAggregate fresh;
  FoldInstances(g, schema.edge_types[t], &fresh);
  EXPECT_EQ(tampered.edge_types[t], fresh);

  SchemaGraph clean_schema = discoverer.schema();
  SchemaAggregates clean = discoverer.aggregates();
  RetractionIndex clean_index;
  clean_index.Rebuild(clean_schema);
  RetractionStats clean_stats;
  ASSERT_TRUE(RetractInstances(g, {}, {victim}, &clean_schema, &clean,
                               &clean_index, &clean_stats)
                  .ok());
  EXPECT_EQ(clean_stats.aggregate_rebuilds, 0u);
  EXPECT_EQ(tampered, clean);
  SchemaJsonOptions with_instances;
  with_instances.include_instances = true;
  EXPECT_EQ(SchemaToJson(schema, with_instances),
            SchemaToJson(clean_schema, with_instances));
}

TEST(AggregatesTest, PipelineFallsBackOnStaleAggregates) {
  Fixture f = MakeFixture();
  SchemaAggregates stale = FreshFold(f.graph, f.schema);
  // External surgery: drop one Person instance. The pipeline must ignore
  // the stale aggregates and still match a rescan of the mutated schema.
  Fixture mutated = f;
  mutated.schema.node_types[0].instances.pop_back();
  PgHivePipeline pipeline{PipelineOptions{}};
  SchemaGraph via_pipeline = mutated.schema;
  pipeline.PostProcessWithAggregates(mutated.graph, &stale, &via_pipeline);
  EXPECT_EQ(SchemaText(via_pipeline),
            SchemaText(RescanPostProcess(mutated.graph, mutated.schema)));
}

// End-to-end on a real dataset: the full pipeline equals the rescan oracle
// run over the same graph's unprocessed schema, one-shot and with the
// gauges published.
TEST(AggregatesTest, DiscoveryIdenticalWithAndWithoutAggregates) {
  GenerateOptions gen;
  gen.num_nodes = 500;
  gen.num_edges = 900;
  PropertyGraph g = GenerateGraph(MakePoleSpec(), gen).value();
  PipelineOptions no_post;
  no_post.post_process = false;
  auto with = PgHivePipeline().DiscoverSchema(g);
  auto unprocessed = PgHivePipeline(no_post).DiscoverSchema(g);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(unprocessed.ok());
  EXPECT_EQ(SchemaText(*with), SchemaText(RescanPostProcess(g, *unprocessed)));
  PublishAggregateGauges(FreshFold(g, *with));
}

// Sampling mode cannot be served from tallies; the pipeline must fall back
// to the sampling value scan (InferDataTypes) over the same schema.
TEST(AggregatesTest, SamplingModeFallsBackToRescan) {
  GenerateOptions gen;
  gen.num_nodes = 400;
  gen.num_edges = 700;
  PropertyGraph g = GenerateGraph(MakePoleSpec(), gen).value();
  PipelineOptions sampled, no_post;
  sampled.datatypes.sample = true;
  no_post.post_process = false;
  auto with = PgHivePipeline(sampled).DiscoverSchema(g);
  auto unprocessed = PgHivePipeline(no_post).DiscoverSchema(g);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(unprocessed.ok());
  EXPECT_EQ(SchemaText(*with),
            SchemaText(RescanPostProcess(g, *unprocessed,
                                         sampled.datatypes)));
}

}  // namespace
}  // namespace pghive
