// Unit tests for post-processing: property constraints, datatype inference
// and cardinality computation (paper §4.4). Constraints and cardinalities
// go through PgHivePipeline::PostProcess, the production path.

#include <gtest/gtest.h>

#include "core/cardinality.h"
#include "core/datatype_inference.h"
#include "core/pipeline.h"
#include "graph/graph_builder.h"

namespace pghive {
namespace {

// Builds a graph and a schema whose single node type owns all nodes.
struct Fixture {
  PropertyGraph graph;
  SchemaGraph schema;

  void AddTypedNodes(const std::string& type,
                     std::vector<std::map<std::string, Value>> props) {
    SchemaNodeType t;
    t.name = type;
    t.labels = {type};
    for (auto& p : props) {
      for (const auto& [k, v] : p) t.property_keys.insert(k);
      NodeId id = graph.AddNode({type}, std::move(p), type);
      t.instances.push_back(id);
    }
    schema.node_types.push_back(std::move(t));
  }
};

// ---------- constraints ----------

TEST(ConstraintsTest, MandatoryWhenPresentEverywhere) {
  Fixture f;
  f.AddTypedNodes("T", {{{"a", Value::Int(1)}, {"b", Value::Int(2)}},
                        {{"a", Value::Int(3)}}});
  PgHivePipeline().PostProcess(f.graph, &f.schema);
  const auto& cs = f.schema.node_types[0].constraints;
  EXPECT_TRUE(cs.at("a").mandatory);
  EXPECT_FALSE(cs.at("b").mandatory);
}

TEST(ConstraintsTest, InstanceLessTypeAllOptional) {
  Fixture f;
  SchemaNodeType t;
  t.name = "Empty";
  t.property_keys = {"x"};
  f.schema.node_types.push_back(t);
  PgHivePipeline().PostProcess(f.graph, &f.schema);
  EXPECT_FALSE(f.schema.node_types[0].constraints.at("x").mandatory);
}

TEST(ConstraintsTest, EdgeConstraints) {
  PropertyGraph g;
  NodeId a = g.AddNode({"A"}, {});
  NodeId b = g.AddNode({"B"}, {});
  EdgeId e1 = g.AddEdge(a, b, {"R"}, {{"w", Value::Int(1)}}).value();
  EdgeId e2 = g.AddEdge(a, b, {"R"}, {}).value();
  SchemaGraph s;
  SchemaEdgeType t;
  t.name = "R";
  t.labels = {"R"};
  t.property_keys = {"w"};
  t.instances = {e1, e2};
  s.edge_types.push_back(t);
  PgHivePipeline().PostProcess(g, &s);
  EXPECT_FALSE(s.edge_types[0].constraints.at("w").mandatory);
}

// ---------- datatype inference ----------

TEST(DataTypeInferenceTest, FoldsToMostSpecificType) {
  Value i = Value::Int(1), d = Value::Double(2.5), s = Value::String("x");
  EXPECT_EQ(FoldValueTypes({&i}), DataType::kInt);
  EXPECT_EQ(FoldValueTypes({&i, &d}), DataType::kDouble);
  EXPECT_EQ(FoldValueTypes({&i, &s}), DataType::kString);
  EXPECT_EQ(FoldValueTypes({}), DataType::kString);
}

TEST(DataTypeInferenceTest, FullScanAssignsTypes) {
  Fixture f;
  f.AddTypedNodes("T", {{{"age", Value::Int(30)},
                         {"score", Value::Double(1.5)},
                         {"active", Value::Bool(true)},
                         {"born", Value::Date("1990-01-01")}},
                        {{"age", Value::Int(31)}}});
  InferDataTypes(f.graph, {}, &f.schema);
  const auto& cs = f.schema.node_types[0].constraints;
  EXPECT_EQ(cs.at("age").type, DataType::kInt);
  EXPECT_EQ(cs.at("score").type, DataType::kDouble);
  EXPECT_EQ(cs.at("active").type, DataType::kBool);
  EXPECT_EQ(cs.at("born").type, DataType::kDate);
}

TEST(DataTypeInferenceTest, MixedValuesGeneralize) {
  Fixture f;
  f.AddTypedNodes("T", {{{"x", Value::Int(1)}},
                        {{"x", Value::Double(2.5)}},
                        {{"y", Value::Int(3)}},
                        {{"y", Value::String("oops")}}});
  InferDataTypes(f.graph, {}, &f.schema);
  const auto& cs = f.schema.node_types[0].constraints;
  EXPECT_EQ(cs.at("x").type, DataType::kDouble);
  EXPECT_EQ(cs.at("y").type, DataType::kString);
}

TEST(DataTypeInferenceTest, SamplingModeStillCompatibleOnUniformData) {
  Fixture f;
  std::vector<std::map<std::string, Value>> props;
  for (int i = 0; i < 3000; ++i) {
    props.push_back({{"n", Value::Int(i)}});
  }
  f.AddTypedNodes("T", std::move(props));
  DataTypeInferenceOptions opt;
  opt.sample = true;
  opt.min_sample = 100;
  InferDataTypes(f.graph, opt, &f.schema);
  EXPECT_EQ(f.schema.node_types[0].constraints.at("n").type, DataType::kInt);
}

TEST(DataTypeInferenceTest, SamplingCanMissRareOutlier) {
  // 5000 ints and a single string outlier: a 10% sample usually misses it,
  // which is exactly the error Figure 8 measures. We only require that the
  // sampled result is one of the two defensible answers.
  Fixture f;
  std::vector<std::map<std::string, Value>> props;
  for (int i = 0; i < 5000; ++i) props.push_back({{"v", Value::Int(i)}});
  props.push_back({{"v", Value::String("outlier")}});
  f.AddTypedNodes("T", std::move(props));

  SchemaGraph full_schema = f.schema;
  InferDataTypes(f.graph, {}, &full_schema);
  EXPECT_EQ(full_schema.node_types[0].constraints.at("v").type,
            DataType::kString);  // full scan sees the outlier

  DataTypeInferenceOptions opt;
  opt.sample = true;
  opt.min_sample = 100;
  opt.sample_fraction = 0.02;
  InferDataTypes(f.graph, opt, &f.schema);
  DataType sampled = f.schema.node_types[0].constraints.at("v").type;
  EXPECT_TRUE(sampled == DataType::kInt || sampled == DataType::kString);
}

// ---------- cardinalities ----------

TEST(CardinalityTest, Classification) {
  EXPECT_EQ(ClassifyCardinality(1, 1), SchemaCardinality::kZeroOrOne);
  EXPECT_EQ(ClassifyCardinality(1, 5), SchemaCardinality::kManyToOne);
  EXPECT_EQ(ClassifyCardinality(5, 1), SchemaCardinality::kOneToMany);
  EXPECT_EQ(ClassifyCardinality(3, 3), SchemaCardinality::kManyToMany);
  EXPECT_EQ(ClassifyCardinality(0, 0), SchemaCardinality::kUnknown);
}

TEST(CardinalityTest, WorksAtExampleEight) {
  // Example 8: WORKS_AT connects each Person to exactly one Org, an Org has
  // multiple employees -> N:1.
  PropertyGraph g;
  NodeId p1 = g.AddNode({"Person"}, {});
  NodeId p2 = g.AddNode({"Person"}, {});
  NodeId org = g.AddNode({"Org"}, {});
  SchemaGraph s;
  SchemaEdgeType t;
  t.name = "WORKS_AT";
  t.instances.push_back(g.AddEdge(p1, org, {"WORKS_AT"}, {}).value());
  t.instances.push_back(g.AddEdge(p2, org, {"WORKS_AT"}, {}).value());
  s.edge_types.push_back(t);
  PgHivePipeline().PostProcess(g, &s);
  EXPECT_EQ(s.edge_types[0].cardinality, SchemaCardinality::kManyToOne);
  EXPECT_EQ(s.edge_types[0].max_out_degree, 1u);
  EXPECT_EQ(s.edge_types[0].max_in_degree, 2u);
}

TEST(CardinalityTest, DistinctTargetsNotParallelEdges) {
  // Two parallel edges to the SAME target count as one distinct target.
  PropertyGraph g;
  NodeId a = g.AddNode({"A"}, {});
  NodeId b = g.AddNode({"B"}, {});
  SchemaGraph s;
  SchemaEdgeType t;
  t.instances.push_back(g.AddEdge(a, b, {"R"}, {}).value());
  t.instances.push_back(g.AddEdge(a, b, {"R"}, {}).value());
  s.edge_types.push_back(t);
  PgHivePipeline().PostProcess(g, &s);
  EXPECT_EQ(s.edge_types[0].max_out_degree, 1u);
  EXPECT_EQ(s.edge_types[0].cardinality, SchemaCardinality::kZeroOrOne);
}

TEST(CardinalityTest, ManyToMany) {
  PropertyGraph g;
  NodeId a1 = g.AddNode({"A"}, {});
  NodeId a2 = g.AddNode({"A"}, {});
  NodeId b1 = g.AddNode({"B"}, {});
  NodeId b2 = g.AddNode({"B"}, {});
  SchemaGraph s;
  SchemaEdgeType t;
  for (auto [x, y] : {std::pair{a1, b1}, {a1, b2}, {a2, b1}, {a2, b2}}) {
    t.instances.push_back(g.AddEdge(x, y, {"R"}, {}).value());
  }
  s.edge_types.push_back(t);
  PgHivePipeline().PostProcess(g, &s);
  EXPECT_EQ(s.edge_types[0].cardinality, SchemaCardinality::kManyToMany);
}

TEST(CardinalityTest, EmptyEdgeTypeUnknown) {
  PropertyGraph g;
  SchemaGraph s;
  s.edge_types.emplace_back();
  PgHivePipeline().PostProcess(g, &s);
  EXPECT_EQ(s.edge_types[0].cardinality, SchemaCardinality::kUnknown);
}

// ---------- full post-processing via pipeline ----------

TEST(PostProcessTest, Figure1EndToEnd) {
  PropertyGraph g = MakeFigure1Graph();
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  int person = schema->FindNodeTypeByLabels({"Person"});
  ASSERT_GE(person, 0);
  const auto& cs = schema->node_types[person].constraints;
  // Example 6: name, gender, bday mandatory for Person (Alice included).
  EXPECT_TRUE(cs.at("name").mandatory);
  EXPECT_TRUE(cs.at("gender").mandatory);
  EXPECT_TRUE(cs.at("bday").mandatory);
  // Example 7: bday inferred as a date.
  EXPECT_EQ(cs.at("bday").type, DataType::kDate);
  int post = schema->FindNodeTypeByLabels({"Post"});
  ASSERT_GE(post, 0);
  EXPECT_FALSE(schema->node_types[post].constraints.at("imgFile").mandatory);
}

}  // namespace
}  // namespace pghive
