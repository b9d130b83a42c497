// Tests for the mutation-stream + schema-drift subsystem: canonical batch
// application (drift/replay.h), net-surviving replay, the engine's
// retraction path (FeedMutations), DriftTracker history/counters/serde, the
// v3 journal records + inherited-segment rotation, the snapshot v4
// drift-history section, the non-monotone DiffSchemas directions mutation
// streams produce, and the evolution scenario generators.

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/args.h"
#include "cli/commands.h"
#include "common/binary_io.h"
#include "common/csv.h"
#include "core/incremental.h"
#include "core/schema_diff.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/evolution.h"
#include "datagen/generator.h"
#include "drift/drift_tracker.h"
#include "drift/replay.h"
#include "graph/graph_builder.h"
#include "graph/mutations.h"
#include "graph/property_graph.h"
#include "store/codec.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "test_dir.h"
#include "text/label_embedder.h"

namespace pghive {
namespace {

NodeData Node(const std::string& label,
              std::map<std::string, Value> properties) {
  NodeData n;
  n.labels = {label};
  n.properties = std::move(properties);
  return n;
}

EdgeData Edge(NodeId source, NodeId target, const std::string& label) {
  EdgeData e;
  e.source = source;
  e.target = target;
  e.labels = {label};
  return e;
}

IncrementalOptions FastOptions() {
  IncrementalOptions opt;
  opt.pipeline.embedding.backend = EmbeddingBackend::kHash;
  return opt;
}

store::StoreOptions FastStoreOptions() {
  store::StoreOptions opt;
  opt.incremental = FastOptions();
  opt.fsync = false;
  return opt;
}

/// Applies a mutation stream through the engine's Feed/FeedMutations split
/// (the same dispatch the durable store uses) and returns the final
/// post-processed schema.
SchemaGraph DiscoverStream(const std::vector<MutationBatch>& stream,
                           const IncrementalOptions& opt) {
  PropertyGraph g;
  IncrementalDiscoverer engine(opt);
  for (const MutationBatch& mb : stream) {
    auto applied = drift::ApplyMutationBatch(&g, mb);
    EXPECT_TRUE(applied.ok()) << applied.status();
    if (!applied.ok()) break;
    Status s;
    if (applied->deleted_nodes.empty() && applied->deleted_edges.empty()) {
      if (applied->batch.num_nodes() == 0 && applied->batch.num_edges() == 0) {
        continue;  // empty batch: nothing to embed or cluster
      }
      s = engine.Feed(applied->batch);
    } else {
      s = engine.FeedMutations(applied->batch, applied->deleted_nodes,
                               applied->deleted_edges);
    }
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) break;
  }
  return engine.Finish(g);
}

const SchemaNodeType* FindNodeTypeWithLabel(const SchemaGraph& s,
                                            const std::string& label) {
  for (const auto& t : s.node_types) {
    if (t.labels.count(label)) return &t;
  }
  return nullptr;
}

// --- drift::ApplyMutationBatch. ---

TEST(ApplyMutationBatchTest, AppendsInCanonicalOrderAndCollectsDeletions) {
  PropertyGraph g;
  MutationBatch b0;
  b0.nodes.push_back(Node("Person", {{"p_name", Value::String("ann")}}));
  b0.nodes.push_back(Node("Person", {{"p_name", Value::String("bob")}}));
  b0.edges.push_back(Edge(0, 1, "KNOWS"));
  auto a0 = drift::ApplyMutationBatch(&g, b0);
  ASSERT_TRUE(a0.ok()) << a0.status();
  EXPECT_TRUE(a0->deleted_nodes.empty());
  EXPECT_TRUE(a0->deleted_edges.empty());
  EXPECT_EQ(a0->appended_nodes, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(a0->appended_edges, (std::vector<EdgeId>{0}));

  // Batch 1: update node 0, insert one node, update edge 0, insert an edge.
  MutationBatch b1;
  NodeUpdate nu;
  nu.id = 0;
  nu.data = Node("Person", {{"p_name", Value::String("ann2")}});
  b1.mutations.update_nodes.push_back(nu);
  b1.nodes.push_back(Node("Person", {{"p_name", Value::String("cat")}}));
  EdgeUpdate eu;
  eu.id = 0;
  eu.data = Edge(2, 1, "KNOWS");  // replacement endpoints: new node id 2
  b1.mutations.update_edges.push_back(eu);
  b1.edges.push_back(Edge(1, 3, "KNOWS"));

  auto a1 = drift::ApplyMutationBatch(&g, b1);
  ASSERT_TRUE(a1.ok()) << a1.status();
  // Canonical append order: update-node replacement (id 2), insert (id 3),
  // then update-edge replacement (id 1), insert (id 2).
  EXPECT_EQ(a1->appended_nodes, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(a1->appended_edges, (std::vector<EdgeId>{1, 2}));
  EXPECT_EQ(a1->deleted_nodes, (std::vector<NodeId>{0}));
  EXPECT_EQ(a1->deleted_edges, (std::vector<EdgeId>{0}));
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(a1->batch.num_nodes(), 2u);
  EXPECT_EQ(a1->batch.num_edges(), 2u);
}

TEST(ApplyMutationBatchTest, RejectsUnknownIdsAndSameBatchDoubleDeletes) {
  PropertyGraph g;
  MutationBatch b0;
  b0.nodes.push_back(Node("Person", {}));
  ASSERT_TRUE(drift::ApplyMutationBatch(&g, b0).ok());

  MutationBatch unknown_node;
  unknown_node.mutations.delete_nodes = {42};
  EXPECT_EQ(drift::ApplyMutationBatch(&g, unknown_node).status().code(),
            StatusCode::kInvalidArgument);

  MutationBatch unknown_edge;
  unknown_edge.mutations.delete_edges = {0};
  EXPECT_EQ(drift::ApplyMutationBatch(&g, unknown_edge).status().code(),
            StatusCode::kInvalidArgument);

  MutationBatch twice;
  twice.mutations.delete_nodes = {0, 0};
  EXPECT_EQ(drift::ApplyMutationBatch(&g, twice).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ApplyMutationBatchTest, RejectsEdgeToNodeDeletedInSameBatch) {
  PropertyGraph g;
  MutationBatch b0;
  b0.nodes.push_back(Node("Person", {}));
  b0.nodes.push_back(Node("Person", {}));
  ASSERT_TRUE(drift::ApplyMutationBatch(&g, b0).ok());

  MutationBatch bad;
  bad.mutations.delete_nodes = {1};
  bad.edges.push_back(Edge(0, 1, "KNOWS"));
  EXPECT_EQ(drift::ApplyMutationBatch(&g, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// --- drift::NetSurvivingStream. ---

TEST(NetSurvivingStreamTest, PreservesBoundariesAndRemapsEndpoints) {
  // Batch 0: nodes 0,1,2 + edge 0->1. Batch 1: delete node 1 and its edge,
  // insert node 3 + edge 2->3. Batch 2: empty.
  std::vector<MutationBatch> stream(3);
  stream[0].nodes = {Node("A", {}), Node("A", {}), Node("A", {})};
  stream[0].edges = {Edge(0, 1, "R")};
  stream[1].mutations.delete_nodes = {1};
  stream[1].mutations.delete_edges = {0};
  stream[1].nodes = {Node("A", {})};
  stream[1].edges = {Edge(2, 3, "R")};

  auto net = drift::NetSurvivingStream(stream);
  ASSERT_TRUE(net.ok()) << net.status();
  ASSERT_EQ(net->size(), 3u);
  // Survivors: nodes 0,2 from batch 0 (compacted ids 0,1), node 3 from
  // batch 1 (compacted id 2); edge 2->3 remaps to 1->2.
  EXPECT_EQ((*net)[0].nodes.size(), 2u);
  EXPECT_EQ((*net)[0].edges.size(), 0u);
  ASSERT_EQ((*net)[1].nodes.size(), 1u);
  ASSERT_EQ((*net)[1].edges.size(), 1u);
  EXPECT_EQ((*net)[1].edges[0].source, 1u);
  EXPECT_EQ((*net)[1].edges[0].target, 2u);
  EXPECT_TRUE((*net)[2].nodes.empty());
  EXPECT_TRUE((*net)[2].edges.empty());
  for (const auto& batch : *net) EXPECT_TRUE(batch.mutations.empty());
}

TEST(NetSurvivingStreamTest, RejectsSurvivingEdgeWithDeletedEndpoint) {
  std::vector<MutationBatch> stream(2);
  stream[0].nodes = {Node("A", {}), Node("A", {})};
  stream[0].edges = {Edge(0, 1, "R")};
  stream[1].mutations.delete_nodes = {1};  // edge 0 still alive: closure broken
  auto net = drift::NetSurvivingStream(stream);
  EXPECT_EQ(net.status().code(), StatusCode::kInvalidArgument);
}

// --- Engine retraction path (FeedMutations end-to-end). ---

TEST(FeedMutationsTest, TypeRetiresWhenAllMembersAreDeleted) {
  std::vector<MutationBatch> stream(2);
  for (int i = 0; i < 4; ++i) {
    stream[0].nodes.push_back(
        Node("Person", {{"p_name", Value::String("p" + std::to_string(i))}}));
  }
  for (int i = 0; i < 3; ++i) {
    stream[0].nodes.push_back(
        Node("Legacy", {{"l_tag", Value::Int(i)}}));
  }
  stream[1].mutations.delete_nodes = {4, 5, 6};

  SchemaGraph schema = DiscoverStream(stream, FastOptions());
  EXPECT_NE(FindNodeTypeWithLabel(schema, "Person"), nullptr);
  EXPECT_EQ(FindNodeTypeWithLabel(schema, "Legacy"), nullptr);
}

TEST(FeedMutationsTest, PropertyRetiresAndConstraintTightens) {
  // p_tmp exists only on node 3; p_age is missing only on node 3. Deleting
  // node 3 removes p_tmp from the schema and makes p_age MANDATORY — both
  // non-monotone transitions the insert-only chain cannot produce.
  std::vector<MutationBatch> stream(2);
  for (int i = 0; i < 3; ++i) {
    stream[0].nodes.push_back(Node(
        "Person", {{"p_name", Value::String("p" + std::to_string(i))},
                   {"p_age", Value::Int(20 + i)}}));
  }
  stream[0].nodes.push_back(
      Node("Person", {{"p_name", Value::String("tmp")},
                      {"p_tmp", Value::Bool(true)}}));
  stream[1].mutations.delete_nodes = {3};

  SchemaGraph schema = DiscoverStream(stream, FastOptions());
  const SchemaNodeType* person = FindNodeTypeWithLabel(schema, "Person");
  ASSERT_NE(person, nullptr);
  EXPECT_EQ(person->property_keys.count("p_tmp"), 0u);
  EXPECT_EQ(person->constraints.count("p_tmp"), 0u);
  ASSERT_EQ(person->constraints.count("p_age"), 1u);
  EXPECT_TRUE(person->constraints.at("p_age").mandatory);
}

TEST(FeedMutationsTest, DatatypeNarrowsWhenTheWideningValueRetires) {
  // mx_score is Int on every survivor; the single Double carrier is deleted,
  // so the final declared datatype narrows back to Int.
  std::vector<MutationBatch> stream(2);
  for (int i = 0; i < 3; ++i) {
    stream[0].nodes.push_back(
        Node("Mixed", {{"mx_score", Value::Int(10 * i)}}));
  }
  stream[0].nodes.push_back(
      Node("Mixed", {{"mx_score", Value::Double(1.5)}}));
  stream[1].mutations.delete_nodes = {3};

  SchemaGraph schema = DiscoverStream(stream, FastOptions());
  const SchemaNodeType* mixed = FindNodeTypeWithLabel(schema, "Mixed");
  ASSERT_NE(mixed, nullptr);
  ASSERT_EQ(mixed->constraints.count("mx_score"), 1u);
  EXPECT_EQ(mixed->constraints.at("mx_score").type, DataType::kInt);
}

TEST(FeedMutationsTest, DoubleDeleteAcrossBatchesIsInvalidArgument) {
  PropertyGraph g;
  IncrementalDiscoverer engine(FastOptions());
  MutationBatch b0;
  b0.nodes = {Node("Person", {}), Node("Person", {})};
  auto a0 = drift::ApplyMutationBatch(&g, b0).value();
  ASSERT_TRUE(engine.Feed(a0.batch).ok());

  MutationBatch b1;
  b1.mutations.delete_nodes = {1};
  auto a1 = drift::ApplyMutationBatch(&g, b1).value();
  ASSERT_TRUE(
      engine.FeedMutations(a1.batch, a1.deleted_nodes, a1.deleted_edges).ok());

  // The graph still holds node 1's bytes (tombstone), so the batch applies;
  // the engine's retraction index knows it is already gone.
  MutationBatch b2;
  b2.mutations.delete_nodes = {1};
  auto a2 = drift::ApplyMutationBatch(&g, b2).value();
  Status again =
      engine.FeedMutations(a2.batch, a2.deleted_nodes, a2.deleted_edges);
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

// Every delete the retraction index cannot resolve is rejected with the
// same error: ids past the end of the graph, an id repeated within one
// batch, and an id an earlier batch already retracted.
TEST(FeedMutationsTest, UnresolvableDeletesAreInvalidArgument) {
  PropertyGraph g;
  MutationBatch b0;
  b0.nodes = {Node("Person", {}), Node("Person", {})};
  b0.edges = {Edge(0, 1, "KNOWS"), Edge(1, 0, "KNOWS")};
  const GraphBatch inserts = drift::ApplyMutationBatch(&g, b0).value().batch;
  // An empty slice: FeedMutations only retracts.
  GraphBatch none = inserts;
  none.node_begin = none.node_end;
  none.edge_begin = none.edge_end;

  // Each case is a run of deletion batches; only the last one must fail.
  struct Deletes {
    std::vector<NodeId> nodes;
    std::vector<EdgeId> edges;
  };
  const std::vector<std::pair<const char*, std::vector<Deletes>>> cases = {
      {"node id past the graph", {{{g.num_nodes()}, {}}}},
      {"edge id past the graph", {{{}, {g.num_edges()}}}},
      {"edge twice in one batch", {{{}, {0, 0}}}},
      {"edge deleted by an earlier batch", {{{}, {0}}, {{}, {0}}}},
  };
  for (const auto& [name, batches] : cases) {
    SCOPED_TRACE(name);
    IncrementalDiscoverer engine(FastOptions());
    ASSERT_TRUE(engine.Feed(inserts).ok());
    for (size_t i = 0; i + 1 < batches.size(); ++i) {
      ASSERT_TRUE(
          engine.FeedMutations(none, batches[i].nodes, batches[i].edges).ok());
    }
    const Status s = engine.FeedMutations(none, batches.back().nodes,
                                          batches.back().edges);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("unknown or already deleted"),
              std::string::npos)
        << s;
  }
}

/// Discovers `g` in one batch, then retracts `nodes` and `edges` as one
/// deletion-only mutation batch — the route `discover --deletions` takes.
SchemaGraph DiscoverThenDelete(PropertyGraph* g, std::vector<NodeId> nodes,
                               std::vector<EdgeId> edges) {
  IncrementalDiscoverer engine;
  EXPECT_TRUE(engine.Feed(FullBatch(*g)).ok());
  MutationBatch deletions;
  deletions.mutations.delete_nodes = std::move(nodes);
  deletions.mutations.delete_edges = std::move(edges);
  auto applied = drift::ApplyMutationBatch(g, deletions);
  EXPECT_TRUE(applied.ok()) << applied.status();
  if (applied.ok()) {
    Status s = engine.FeedMutations(applied->batch, applied->deleted_nodes,
                                    applied->deleted_edges);
    EXPECT_TRUE(s.ok()) << s;
  }
  return engine.Finish(*g);
}

/// Every edge incident to a node in `nodes`.
std::vector<EdgeId> IncidentEdges(const PropertyGraph& g,
                                  const std::set<NodeId>& nodes) {
  std::vector<EdgeId> edges;
  for (const auto& e : g.edges()) {
    if (nodes.count(e.source) || nodes.count(e.target)) edges.push_back(e.id);
  }
  return edges;
}

TEST(FeedMutationsTest, RemovingInstancesShrinksAssignments) {
  // Delete Bob (node 0 of the Figure-1 graph) and his incident edges.
  PropertyGraph g = MakeFigure1Graph();
  const std::vector<EdgeId> bob_edges = IncidentEdges(g, {0});
  ASSERT_FALSE(bob_edges.empty());
  SchemaGraph schema = DiscoverThenDelete(&g, {0}, bob_edges);
  const int person = schema.FindNodeTypeByLabels({"Person"});
  ASSERT_GE(person, 0);
  EXPECT_EQ(schema.node_types[person].instances.size(), 2u);
  size_t edge_instances = 0;
  for (const auto& t : schema.edge_types) {
    edge_instances += t.instances.size();
  }
  EXPECT_EQ(edge_instances, g.num_edges() - bob_edges.size());
}

TEST(FeedMutationsTest, SchemaStillValidatesSurvivors) {
  PropertyGraph g =
      GenerateGraph(MakePoleSpec(),
                    GenerateOptions{.num_nodes = 400, .num_edges = 700})
          .value();
  // Delete a third of the nodes and every edge incident to them.
  std::set<NodeId> dead_nodes;
  for (NodeId i = 0; i < g.num_nodes(); i += 3) dead_nodes.insert(i);
  const std::vector<EdgeId> dead_edges = IncidentEdges(g, dead_nodes);
  SchemaGraph schema = DiscoverThenDelete(
      &g, {dead_nodes.begin(), dead_nodes.end()}, dead_edges);
  // Survivors must each still be assigned exactly once.
  std::vector<int> seen(g.num_nodes(), 0);
  for (const auto& t : schema.node_types) {
    for (NodeId id : t.instances) ++seen[id];
  }
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(seen[i], dead_nodes.count(i) ? 0 : 1) << "node " << i;
  }
  const std::set<EdgeId> dead_edge_set(dead_edges.begin(), dead_edges.end());
  std::vector<int> edge_seen(g.num_edges(), 0);
  for (const auto& t : schema.edge_types) {
    for (EdgeId id : t.instances) ++edge_seen[id];
  }
  for (EdgeId i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(edge_seen[i], dead_edge_set.count(i) ? 0 : 1) << "edge " << i;
  }
}

// --- Non-monotone DiffSchemas directions (what drift records look like). ---

SchemaGraph DiffBaseSchema() {
  SchemaGraph s;
  SchemaNodeType person;
  person.name = "Person";
  person.labels = {"Person"};
  person.property_keys = {"name", "age"};
  person.constraints["name"] = {DataType::kString, false};
  person.constraints["age"] = {DataType::kInt, true};
  s.node_types.push_back(person);
  SchemaEdgeType knows;
  knows.name = "KNOWS";
  knows.labels = {"KNOWS"};
  knows.source_labels = {"Person"};
  knows.target_labels = {"Person"};
  knows.cardinality = SchemaCardinality::kManyToMany;
  s.edge_types.push_back(knows);
  return s;
}

TEST(DriftDiffTest, RemovedPropertyDetected) {
  SchemaGraph from = DiffBaseSchema();
  SchemaGraph to = DiffBaseSchema();
  to.node_types[0].property_keys.erase("age");
  to.node_types[0].constraints.erase("age");
  SchemaDiff diff = DiffSchemas(from, to);
  ASSERT_EQ(diff.changed_types.size(), 1u);
  EXPECT_EQ(diff.changed_types[0].removed_properties,
            (std::set<std::string>{"age"}));
}

TEST(DriftDiffTest, BecameMandatoryDetected) {
  SchemaGraph from = DiffBaseSchema();
  SchemaGraph to = DiffBaseSchema();
  to.node_types[0].constraints["name"] = {DataType::kString, true};
  SchemaDiff diff = DiffSchemas(from, to);
  ASSERT_EQ(diff.changed_types.size(), 1u);
  ASSERT_EQ(diff.changed_types[0].became_mandatory.size(), 1u);
  EXPECT_EQ(diff.changed_types[0].became_mandatory[0], "name");
}

TEST(DriftDiffTest, CardinalityDowngradeDetected) {
  SchemaGraph from = DiffBaseSchema();
  SchemaGraph to = DiffBaseSchema();
  to.edge_types[0].cardinality = SchemaCardinality::kZeroOrOne;
  SchemaDiff diff = DiffSchemas(from, to);
  ASSERT_EQ(diff.changed_types.size(), 1u);
  EXPECT_EQ(diff.changed_types[0].cardinality_change, "M:N -> 0:1");
}

TEST(DriftDiffTest, RetiredTypeDetected) {
  SchemaGraph from = DiffBaseSchema();
  SchemaGraph to = DiffBaseSchema();
  to.node_types.clear();
  SchemaDiff diff = DiffSchemas(from, to);
  ASSERT_EQ(diff.removed_node_types.size(), 1u);
  EXPECT_EQ(diff.removed_node_types[0], "Person");
}

// --- DriftTracker. ---

TEST(DriftTrackerTest, RecordsOnlyChangedEpochs) {
  drift::DriftTracker tracker;
  SchemaGraph base = DiffBaseSchema();
  tracker.Observe(1, base);  // from empty baseline: types added
  tracker.Observe(2, base);  // unchanged: not recorded
  SchemaGraph shrunk = base;
  shrunk.node_types[0].property_keys.erase("age");
  shrunk.node_types[0].constraints.erase("age");
  tracker.Observe(3, shrunk);

  EXPECT_EQ(tracker.counters().epochs_observed, 3u);
  EXPECT_EQ(tracker.counters().epochs_changed, 2u);
  ASSERT_EQ(tracker.history().size(), 2u);
  EXPECT_EQ(tracker.history()[0].epoch, 1u);
  EXPECT_EQ(tracker.history()[1].epoch, 3u);
  EXPECT_EQ(tracker.counters().node_types_added, 1u);
  EXPECT_EQ(tracker.counters().edge_types_added, 1u);
  EXPECT_EQ(tracker.counters().properties_removed, 1u);
  EXPECT_EQ(tracker.last_epoch(), 3u);
}

TEST(DriftTrackerTest, HistoryIsBoundedCountersAreNot) {
  drift::DriftTracker tracker(/*max_history=*/2);
  SchemaGraph a = DiffBaseSchema();
  SchemaGraph b = DiffBaseSchema();
  b.node_types[0].property_keys.insert("extra");
  const SchemaGraph* flip[2] = {&a, &b};
  for (uint64_t e = 1; e <= 5; ++e) tracker.Observe(e, *flip[e % 2]);

  EXPECT_EQ(tracker.history().size(), 2u);
  EXPECT_EQ(tracker.history()[0].epoch, 4u);
  EXPECT_EQ(tracker.history()[1].epoch, 5u);
  EXPECT_EQ(tracker.counters().epochs_changed, 5u);
}

TEST(DriftTrackerTest, SerializeRestoreRoundTrips) {
  drift::DriftTracker tracker;
  SchemaGraph base = DiffBaseSchema();
  tracker.Observe(1, base);
  SchemaGraph shrunk = base;
  shrunk.edge_types[0].cardinality = SchemaCardinality::kZeroOrOne;
  tracker.Observe(2, shrunk);

  const std::string bytes = tracker.Serialize();
  drift::DriftTracker restored;
  ASSERT_TRUE(restored.Restore(bytes).ok());
  EXPECT_EQ(restored.counters(), tracker.counters());
  EXPECT_EQ(restored.last_epoch(), 2u);
  ASSERT_EQ(restored.history().size(), tracker.history().size());
  for (size_t i = 0; i < restored.history().size(); ++i) {
    EXPECT_EQ(restored.history()[i].epoch, tracker.history()[i].epoch);
    EXPECT_EQ(restored.history()[i].diff.ToString(),
              tracker.history()[i].diff.ToString());
  }

  drift::DriftTracker garbage;
  EXPECT_FALSE(garbage.Restore("not a drift history").ok());
}

TEST(DriftTrackerTest, JsonFiltersHistoryBySince) {
  drift::DriftTracker tracker;
  SchemaGraph a = DiffBaseSchema();
  SchemaGraph b = DiffBaseSchema();
  b.node_types[0].property_keys.insert("extra");
  tracker.Observe(1, a);
  tracker.Observe(3, b);

  JsonValue all = drift::DriftToJson(tracker, /*since=*/0);
  ASSERT_TRUE(all["history"].is_array());
  EXPECT_EQ(all["history"].AsArray().size(), 2u);
  EXPECT_EQ(all.GetInt("epoch").value(), 3);

  JsonValue tail = drift::DriftToJson(tracker, /*since=*/1);
  ASSERT_TRUE(tail["history"].is_array());
  ASSERT_EQ(tail["history"].AsArray().size(), 1u);
  EXPECT_EQ(tail["history"].AsArray()[0].GetInt("epoch").value(), 3);
  EXPECT_EQ(tail.GetInt("since").value(), 1);
}

// --- Journal v3 records + segment rotation. ---

MutationBatch MixedPayload() {
  MutationBatch payload;
  payload.nodes = {Node("Person", {{"p_name", Value::String("new")}})};
  payload.edges = {Edge(0, 2, "KNOWS")};
  payload.mutations.delete_nodes = {1};
  payload.mutations.delete_edges = {0};
  NodeUpdate nu;
  nu.id = 0;
  nu.data = Node("Person", {{"p_name", Value::String("renamed")}});
  payload.mutations.update_nodes = {nu};
  EdgeUpdate eu;
  eu.id = 1;
  eu.data = Edge(2, 3, "KNOWS");
  payload.mutations.update_edges = {eu};
  return payload;
}

TEST(JournalV3Test, MutationPayloadRoundTrips) {
  const MutationBatch payload = MixedPayload();
  BinaryWriter w;
  store::EncodeBatchPayloadV3(payload, &w);
  BinaryReader r(w.buffer());
  auto decoded = store::DecodeBatchPayloadV3(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  ASSERT_EQ(decoded->nodes.size(), 1u);
  EXPECT_EQ(decoded->nodes[0].labels, (std::set<std::string>{"Person"}));
  ASSERT_EQ(decoded->edges.size(), 1u);
  EXPECT_EQ(decoded->edges[0].source, 0u);
  EXPECT_EQ(decoded->edges[0].target, 2u);
  EXPECT_EQ(decoded->mutations.delete_nodes, (std::vector<NodeId>{1}));
  EXPECT_EQ(decoded->mutations.delete_edges, (std::vector<EdgeId>{0}));
  ASSERT_EQ(decoded->mutations.update_nodes.size(), 1u);
  EXPECT_EQ(decoded->mutations.update_nodes[0].id, 0u);
  EXPECT_EQ(decoded->mutations.update_nodes[0].data.properties.at("p_name"),
            Value::String("renamed"));
  ASSERT_EQ(decoded->mutations.update_edges.size(), 1u);
  EXPECT_EQ(decoded->mutations.update_edges[0].id, 1u);
  EXPECT_EQ(decoded->mutations.update_edges[0].data.target, 3u);
}

/// The first 8 bytes of a segment written at journal format version 3.
std::string V3SegmentHeader() {
  return std::string("PGHJ") + std::string("\x03\x00\x00\x00", 4);
}

TEST(JournalV3Test, MutationBatchRotatesInheritedV2Segment) {
  // A copy of the pinned v2 state directory: a snapshot at batch 4 plus a
  // v2 segment holding batches 4 and 5, as an upgraded deployment inherits
  // it. Its options are the fixture's (tests/store_compat_test.cpp).
  namespace fs = std::filesystem;
  const std::string dir = TestDir("rotate_v2");
  fs::create_directories(dir);
  for (const auto& entry :
       fs::directory_iterator(PGHIVE_GOLDEN_DIR "/v2_state")) {
    fs::copy_file(entry.path(), fs::path(dir) / entry.path().filename());
  }
  store::StoreOptions opt;
  opt.checkpoint_every_batches = 4;
  opt.checkpoint_every_bytes = 0;
  opt.fsync = false;
  const std::string v2_segment = dir + "/journal-00000000000000000004.wal";
  const std::string v2_bytes = ReadFile(v2_segment).value();

  store::RecoveryReport report;
  auto opened = store::DurableDiscoverer::OpenOrRecover(dir, opt, &report);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(report.replayed_batches, 2u) << report.ToString();

  MutationBatch del;
  del.mutations.delete_edges = {0};
  ASSERT_TRUE((*opened)->Feed(del).ok());

  // The v2 segment is unchanged; the mutation record opened a fresh v3
  // segment named after its batch.
  EXPECT_EQ(ReadFile(v2_segment).value(), v2_bytes);
  const auto segments = store::ListJournalFiles(dir);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments.back(), dir + "/journal-00000000000000000006.wal");
  EXPECT_EQ(ReadFile(segments.back()).value().substr(0, 8),
            V3SegmentHeader());
  auto read = store::ReadJournalSegment(segments.back());
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].batch_id, 6u);
  EXPECT_EQ(read->records[0].payload.mutations.delete_edges,
            (std::vector<EdgeId>{0}));

  // A second recovery replays both segments: 7 batches applied.
  opened->reset();
  store::RecoveryReport report2;
  auto reopened = store::DurableDiscoverer::OpenOrRecover(dir, opt, &report2);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(report2.replayed_batches, 3u) << report2.ToString();
  EXPECT_EQ((*reopened)->batches_applied(), 7u);
}

TEST(JournalV3Test, EmptyInheritedSegmentIsReplacedInPlace) {
  const std::string dir = TestDir("rotate_empty");
  std::filesystem::create_directories(dir);
  const std::string seg = dir + "/journal-00000000000000000000.wal";
  // Header-only v1 segment: zero records, under the name the next batch
  // opens.
  ASSERT_TRUE(
      WriteFile(seg, std::string("PGHJ") + std::string("\x01\x00\x00\x00", 4))
          .ok());

  auto opened = store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  ASSERT_TRUE(opened.ok()) << opened.status();
  MutationBatch b;
  b.nodes = {Node("Person", {})};
  b.mutations = {};
  ASSERT_TRUE((*opened)->Feed(b).ok());
  // The first insert-only batch already replaced it: one v3 segment under
  // the same name.
  ASSERT_EQ(store::ListJournalFiles(dir), std::vector<std::string>{seg});
  EXPECT_EQ(ReadFile(seg).value().substr(0, 8), V3SegmentHeader());

  MutationBatch del;
  del.mutations.delete_nodes = {0};
  ASSERT_TRUE((*opened)->Feed(del).ok());
  ASSERT_EQ(store::ListJournalFiles(dir), std::vector<std::string>{seg});
  auto read = store::ReadJournalSegment(seg);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->records.size(), 2u);
  EXPECT_EQ((*opened)->batches_applied(), 2u);
}

// --- Durable store: drift history in snapshots, per-op metrics. ---

std::vector<MutationBatch> SmallMutationStream() {
  std::vector<MutationBatch> stream(3);
  for (int i = 0; i < 4; ++i) {
    stream[0].nodes.push_back(
        Node("Person", {{"p_name", Value::String("p" + std::to_string(i))}}));
  }
  for (int i = 0; i < 2; ++i) {
    stream[0].nodes.push_back(Node("Legacy", {{"l_tag", Value::Int(i)}}));
  }
  stream[0].edges.push_back(Edge(0, 1, "KNOWS"));
  stream[1].mutations.delete_nodes = {4, 5};  // Legacy retires
  NodeUpdate nu;
  nu.id = 0;
  nu.data = Node("Person", {{"p_name", Value::String("p0b")}});
  stream[1].mutations.update_nodes = {nu};
  stream[1].mutations.delete_edges = {0};  // node 0's incident edge
  stream[2].nodes = {Node("Person", {{"p_name", Value::String("p9")}})};
  return stream;
}

TEST(StoreDriftTest, SnapshotCarriesDriftHistoryAcrossRecovery) {
  const std::string dir = TestDir("snapshot_drift");
  std::vector<MutationBatch> stream = SmallMutationStream();
  drift::DriftCounters before;
  {
    auto opened =
        store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (const auto& batch : stream) {
      ASSERT_TRUE((*opened)->Feed(batch).ok());
    }
    const drift::DriftTracker& tracker = (*opened)->drift_tracker();
    EXPECT_EQ(tracker.counters().epochs_observed, 3u);
    EXPECT_GE(tracker.counters().node_types_retired, 1u);
    before = tracker.counters();
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }

  // The newest snapshot decodes with the section present.
  const auto snapshots = store::ListSnapshotFiles(dir);
  ASSERT_FALSE(snapshots.empty());
  auto bytes = ReadFile(snapshots.front());
  ASSERT_TRUE(bytes.ok());
  auto snap = store::DecodeSnapshot(*bytes);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_TRUE(snap->has_drift);
  drift::DriftTracker from_snapshot;
  ASSERT_TRUE(from_snapshot.Restore(snap->drift_history).ok());
  EXPECT_EQ(from_snapshot.counters(), before);

  // Recovery restores the same history and counters.
  auto reopened =
      store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->drift_tracker().counters(), before);

  // inspect-state's metrics see the mutation ops and the drift section.
  const store::StateDirMetrics metrics = store::CollectStateDirMetrics(dir);
  EXPECT_GT(metrics.drift_history_bytes, 0u);
}

TEST(StoreDriftTest, TrackDriftOffKeepsSnapshotsLean) {
  const std::string dir = TestDir("drift_off");
  store::StoreOptions opt = FastStoreOptions();
  opt.track_drift = false;
  auto opened = store::DurableDiscoverer::OpenOrRecover(dir, opt);
  ASSERT_TRUE(opened.ok()) << opened.status();
  for (const auto& batch : SmallMutationStream()) {
    ASSERT_TRUE((*opened)->Feed(batch).ok());
  }
  EXPECT_TRUE((*opened)->drift_tracker().history().empty());
  ASSERT_TRUE((*opened)->Checkpoint().ok());

  const auto snapshots = store::ListSnapshotFiles(dir);
  ASSERT_FALSE(snapshots.empty());
  auto bytes = ReadFile(snapshots.front());
  ASSERT_TRUE(bytes.ok());
  auto snap = store::DecodeSnapshot(*bytes);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_FALSE(snap->has_drift);
}

TEST(StoreDriftTest, MetricsCountPerRecordTypeOps) {
  const std::string dir = TestDir("op_metrics");
  {
    auto opened =
        store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (const auto& batch : SmallMutationStream()) {
      ASSERT_TRUE((*opened)->Feed(batch).ok());
    }
  }
  const store::StateDirMetrics metrics = store::CollectStateDirMetrics(dir);
  EXPECT_EQ(metrics.journal_records, 3u);
  EXPECT_EQ(metrics.journal_insert_ops, 8u);  // 6+1 batch-0 rows + 1 batch-2
  EXPECT_EQ(metrics.journal_delete_ops, 3u);  // 2 nodes + 1 edge
  EXPECT_EQ(metrics.journal_update_ops, 1u);
  const std::string rendered = metrics.ToString();
  EXPECT_NE(rendered.find("journal ops:"), std::string::npos);
}

// --- CLI: pghive drift. ---

Args MakeArgs(std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"pghive"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliDriftTest, ReportsHistoryFromNewestSnapshot) {
  const std::string dir = TestDir("cli_drift");
  {
    auto opened =
        store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
    ASSERT_TRUE(opened.ok()) << opened.status();
    for (const auto& batch : SmallMutationStream()) {
      ASSERT_TRUE((*opened)->Feed(batch).ok());
    }
    ASSERT_TRUE((*opened)->Checkpoint().ok());
  }

  std::ostringstream out;
  Status s = CmdDrift(MakeArgs({"drift", dir}), out);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.str().find("epochs observed"), std::string::npos);
  EXPECT_NE(out.str().find("epoch 2"), std::string::npos);

  std::ostringstream json_out;
  s = CmdDrift(MakeArgs({"drift", dir, "--format", "json"}), json_out);
  ASSERT_TRUE(s.ok()) << s;
  auto doc = ParseJson(json_out.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_TRUE((*doc)["history"].is_array());

  std::ostringstream empty_out;
  s = CmdDrift(MakeArgs({"drift", dir, "--since", "99"}), empty_out);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(empty_out.str().find("no recorded diffs"), std::string::npos);

  std::ostringstream missing_out;
  s = CmdDrift(MakeArgs({"drift", TestDir("cli_drift_missing")}), missing_out);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

// --- Evolution scenarios. ---

TEST(EvolutionTest, AllScenariosApplyCleanlyAndLeaveSurvivors) {
  const auto names = EvolutionScenarioNames();
  const auto scenarios = AllEvolutionScenarios();
  ASSERT_EQ(scenarios.size(), names.size());
  ASSERT_GE(scenarios.size(), 4u);  // the acceptance floor
  for (size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name);
    EXPECT_EQ(scenarios[i].name, names[i]);
    PropertyGraph g;
    size_t deletions = 0;
    for (const MutationBatch& mb : scenarios[i].stream) {
      deletions += mb.mutations.delete_nodes.size() +
                   mb.mutations.delete_edges.size() +
                   mb.mutations.update_nodes.size() +
                   mb.mutations.update_edges.size();
      auto applied = drift::ApplyMutationBatch(&g, mb);
      ASSERT_TRUE(applied.ok()) << applied.status();
    }
    EXPECT_GT(deletions, 0u) << "scenario exercises no mutations";
    auto net = drift::NetSurvivingStream(scenarios[i].stream);
    ASSERT_TRUE(net.ok()) << net.status();
    size_t survivors = 0;
    for (const MutationBatch& mb : *net) survivors += mb.nodes.size();
    EXPECT_GT(survivors, 0u);
    EXPECT_LT(survivors, g.num_nodes());  // something actually retired
  }
  EXPECT_FALSE(MakeEvolutionScenario("nope").ok());
}

TEST(EvolutionTest, SteadyStreamHasConstantShape) {
  const auto stream = MakeSteadyMutationStream(/*num_batches=*/8,
                                               /*per_batch=*/6);
  ASSERT_EQ(stream.size(), 8u);
  PropertyGraph g;
  for (const MutationBatch& mb : stream) {
    auto applied = drift::ApplyMutationBatch(&g, mb);
    ASSERT_TRUE(applied.ok()) << applied.status();
  }
  size_t mutating_batches = 0;
  for (const MutationBatch& mb : stream) {
    if (!mb.mutations.empty()) ++mutating_batches;
  }
  EXPECT_GE(mutating_batches, 4u);
  auto net = drift::NetSurvivingStream(stream);
  ASSERT_TRUE(net.ok()) << net.status();
}

}  // namespace
}  // namespace pghive
