// CSV import/export round-trip guarantees (graph/csv_io.h): save -> load
// yields a structurally identical graph, including values that stress the
// quoting/escaping rules of the dialect. The streaming loader is also held
// to the row-at-a-time loader it replaced (ReferenceGraphFromCsv below):
// same graph and the same interned ids in the same order, on every dataset
// generator, on a table of dialect corner cases and on seeded mutations of
// a tricky input.

#include <charconv>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/csv.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "graph/csv_io.h"
#include "graph/property_graph.h"
#include "store/codec.h"

namespace pghive {
namespace {

PropertyGraph MakeTrickyGraph() {
  PropertyGraph g;
  NodeId a = g.AddNode({"Person"},
                       {{"name", Value::String("Doe, Jane")},
                        {"bio", Value::String("says \"hi\"\nand leaves")},
                        {"age", Value::Int(41)}},
                       "Person");
  NodeId b = g.AddNode({"Person", "Admin"},
                       {{"name", Value::String(";semi;colons;")},
                        {"score", Value::Double(2.5)}},
                       "Person");
  NodeId c = g.AddNode({}, {{"flag", Value::Bool(true)}}, "");
  EXPECT_TRUE(g.AddEdge(a, b, {"KNOWS"},
                        {{"since", Value::String("a,b\"c\"\nd")}}, "KNOWS")
                  .ok());
  EXPECT_TRUE(g.AddEdge(b, c, {}, {}, "").ok());
  EXPECT_TRUE(
      g.AddEdge(c, a, {"LIKES"}, {{"weight", Value::Double(0.125)}}, "LIKES")
          .ok());
  return g;
}

// --- The oracle: the row-at-a-time loader. ---

std::set<std::string> LabelSet(const std::string& cell) {
  std::set<std::string> labels;
  for (auto& part : Split(cell, ';')) {
    if (!part.empty()) labels.insert(part);
  }
  return labels;
}

bool StrictId(const std::string& cell, NodeId* id) {
  const char* end = cell.data() + cell.size();
  auto [ptr, ec] = std::from_chars(cell.data(), end, *id);
  return ec == std::errc() && ptr == end;
}

// Every cell as a string, one std::map / std::set per row, AddNode /
// AddEdge: the loader GraphFromCsv replaced, with its endpoint parsing made
// strict.
Result<PropertyGraph> ReferenceGraphFromCsv(const std::string& nodes_csv,
                                            const std::string& edges_csv) {
  PGHIVE_ASSIGN_OR_RETURN(auto node_rows, ParseCsv(nodes_csv));
  PGHIVE_ASSIGN_OR_RETURN(auto edge_rows, ParseCsv(edges_csv));
  if (node_rows.empty() || edge_rows.empty()) {
    return Status::ParseError("missing CSV header row");
  }
  PropertyGraph g;
  const auto& nheader = node_rows[0];
  if (nheader.size() < 3 || nheader[0] != "id" || nheader[1] != "labels" ||
      nheader[2] != "truth") {
    return Status::ParseError("bad node CSV header");
  }
  for (size_t r = 1; r < node_rows.size(); ++r) {
    const auto& row = node_rows[r];
    if (row.size() != nheader.size()) {
      return Status::ParseError("node row has wrong field count");
    }
    std::map<std::string, Value> props;
    for (size_t c = 3; c < row.size(); ++c) {
      if (!row[c].empty()) props.emplace(nheader[c], ParseValue(row[c]));
    }
    NodeId id = g.AddNode(LabelSet(row[1]), std::move(props), row[2]);
    if (std::to_string(id) != row[0]) {
      return Status::ParseError("node ids must be dense 0..n-1 in row order");
    }
  }
  const auto& eheader = edge_rows[0];
  if (eheader.size() < 4 || eheader[0] != "src" || eheader[1] != "tgt" ||
      eheader[2] != "labels" || eheader[3] != "truth") {
    return Status::ParseError("bad edge CSV header");
  }
  for (size_t r = 1; r < edge_rows.size(); ++r) {
    const auto& row = edge_rows[r];
    if (row.size() != eheader.size()) {
      return Status::ParseError("edge row has wrong field count");
    }
    std::map<std::string, Value> props;
    for (size_t c = 4; c < row.size(); ++c) {
      if (!row[c].empty()) props.emplace(eheader[c], ParseValue(row[c]));
    }
    NodeId src = 0, tgt = 0;
    if (!StrictId(row[0], &src) || !StrictId(row[1], &tgt)) {
      return Status::ParseError("bad edge endpoint id");
    }
    auto added =
        g.AddEdge(src, tgt, LabelSet(row[2]), std::move(props), row[3]);
    if (!added.ok()) return added.status();
  }
  return g;
}

// Every interned id of `g` as bytes: the PGHS symbol and columnar graph
// sections, both signature pools and each element's signature id.
std::string InternedBytes(const PropertyGraph& g) {
  BinaryWriter w;
  store::EncodeSymbols(g.symbols(), &w);
  store::EncodeGraphColumnar(g, &w);
  for (const SignaturePool* pool :
       {&g.symbols().node_signatures, &g.symbols().edge_signatures}) {
    w.WriteU64(pool->size());
    for (SignatureId s = 0; s < pool->size(); ++s) {
      w.WriteU32(pool->label_set(s));
      w.WriteU32(pool->key_set(s));
    }
  }
  for (const Node& n : g.nodes()) w.WriteU32(n.signature);
  for (const Edge& e : g.edges()) w.WriteU32(e.signature);
  return std::move(w).Take();
}

void ExpectSameTable(const SymbolTable& a, const SymbolTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (SymbolId i = 0; i < a.size(); ++i) EXPECT_EQ(a.name(i), b.name(i));
}

void ExpectSamePool(const SymbolSetPool& a, const SymbolSetPool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (SymbolSetId i = 0; i < a.size(); ++i) EXPECT_EQ(a.ids(i), b.ids(i));
}

void ExpectSameSignatures(const SignaturePool& a, const SignaturePool& b) {
  ASSERT_EQ(a.size(), b.size());
  for (SignatureId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label_set(i), b.label_set(i));
    EXPECT_EQ(a.key_set(i), b.key_set(i));
  }
}

// GraphFromCsv on the exported `source`: equal to the source, and equal to
// the oracle down to every symbol id.
void ExpectLoadMatchesOracle(const PropertyGraph& source) {
  const std::string nodes = NodesToCsv(source);
  const std::string edges = EdgesToCsv(source);
  auto loaded = GraphFromCsv(nodes, edges);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(GraphsEqual(source, *loaded));
  auto oracle = ReferenceGraphFromCsv(nodes, edges);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  const GraphSymbols& a = loaded->symbols();
  const GraphSymbols& b = oracle->symbols();
  ExpectSameTable(a.labels, b.labels);
  ExpectSameTable(a.keys, b.keys);
  ExpectSamePool(a.label_sets, b.label_sets);
  ExpectSamePool(a.key_sets, b.key_sets);
  ExpectSameSignatures(a.node_signatures, b.node_signatures);
  ExpectSameSignatures(a.edge_signatures, b.edge_signatures);
  EXPECT_TRUE(InternedBytes(*loaded) == InternedBytes(*oracle));
}

TEST(CsvIoTest, TextRoundTripPreservesGraph) {
  PropertyGraph g = MakeTrickyGraph();
  auto loaded = GraphFromCsv(NodesToCsv(g), EdgesToCsv(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(GraphsEqual(g, *loaded));
}

TEST(CsvIoTest, LoadSaveLoadIsIdentical) {
  std::string prefix = testing::TempDir() + "/pghive_csv_roundtrip";
  PropertyGraph g = MakeTrickyGraph();
  ASSERT_TRUE(SaveGraphCsv(g, prefix).ok());
  auto first = LoadGraphCsv(prefix);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(GraphsEqual(g, *first));

  // Second generation: saving the loaded graph reproduces it exactly.
  std::string prefix2 = prefix + "_again";
  ASSERT_TRUE(SaveGraphCsv(*first, prefix2).ok());
  auto second = LoadGraphCsv(prefix2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(GraphsEqual(*first, *second));
  EXPECT_EQ(NodesToCsv(*first), NodesToCsv(*second));
  EXPECT_EQ(EdgesToCsv(*first), EdgesToCsv(*second));
}

TEST(CsvIoTest, GeneratedDatasetRoundTrips) {
  auto spec = DatasetSpecByName("ICIJ").value();
  GenerateOptions gen;
  gen.num_nodes = 400;
  gen.num_edges = 700;
  PropertyGraph g = GenerateGraph(spec, gen).value();
  auto loaded = GraphFromCsv(NodesToCsv(g), EdgesToCsv(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(GraphsEqual(g, *loaded));
}

TEST(CsvIoTest, GraphsEqualDetectsDifferences) {
  PropertyGraph a = MakeTrickyGraph();
  EXPECT_TRUE(GraphsEqual(a, a));

  PropertyGraph b = MakeTrickyGraph();
  std::map<std::string, Value> props = b.node(0).properties;
  props["age"] = Value::Int(42);
  b.SetNodeProperties(0, props);
  EXPECT_FALSE(GraphsEqual(a, b));

  PropertyGraph c = MakeTrickyGraph();
  std::set<std::string> labels = c.edge(0).labels;
  labels.insert("EXTRA");
  c.SetEdgeLabels(0, labels);
  EXPECT_FALSE(GraphsEqual(a, c));

  PropertyGraph d = MakeTrickyGraph();
  d.AddNode({"Extra"}, {}, "");
  EXPECT_FALSE(GraphsEqual(a, d));
}

// --- The streaming loader against the oracle. ---

TEST(CsvIoTest, StreamingLoaderInternsLikeRowLoaderOnEveryDataset) {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    SCOPED_TRACE(spec.name);
    GenerateOptions gen;
    gen.num_nodes = 600;
    gen.num_edges = 1200;
    ExpectLoadMatchesOracle(GenerateGraph(spec, gen).value());
  }
  SCOPED_TRACE("tricky");
  ExpectLoadMatchesOracle(MakeTrickyGraph());
}

struct DialectCase {
  std::string name;
  std::string nodes;
  std::string edges;
  StatusCode code;
  std::function<void(const PropertyGraph&)> check = nullptr;
};

const std::string kNodeHeader = "id,labels,truth,x\n";
const std::string kEdgeHeader = "src,tgt,labels,truth\n";

// The text of property `key` on node `id`, or "<absent>".
std::string NodeText(const PropertyGraph& g, NodeId id,
                     const std::string& key) {
  const Value* v = g.node(id).properties.FindValue(key);
  return v == nullptr ? "<absent>" : v->ToText();
}

TEST(CsvIoTest, DialectCornerCases) {
  const std::vector<DialectCase> cases = {
      {"quote opens mid-field", kNodeHeader + "0,A,T,ab\"c,d\"e\n",
       kEdgeHeader, StatusCode::kOk,
       [](const PropertyGraph& g) {
         EXPECT_EQ(NodeText(g, 0, "x"), "abc,de");
       }},
      {"doubled quotes", kNodeHeader + "0,A,T,\"say \"\"hi\"\"\"\n",
       kEdgeHeader, StatusCode::kOk,
       [](const PropertyGraph& g) {
         EXPECT_EQ(NodeText(g, 0, "x"), "say \"hi\"");
       }},
      {"line breaks inside quotes",
       kNodeHeader + "0,A,T,\"l1\r\nl2\rl3\nl4\"\n1,A,T,2\n", kEdgeHeader,
       StatusCode::kOk,
       [](const PropertyGraph& g) {
         ASSERT_EQ(g.num_nodes(), 2u);
         EXPECT_EQ(NodeText(g, 0, "x"), "l1\r\nl2\rl3\nl4");
       }},
      {"bare CR ends records", "id,labels,truth,x\r0,A,T,1\r1,B,T,2",
       "src,tgt,labels,truth\r1,0,R,T\r", StatusCode::kOk,
       [](const PropertyGraph& g) {
         ASSERT_EQ(g.num_nodes(), 2u);
         ASSERT_EQ(g.num_edges(), 1u);
         EXPECT_EQ(g.node(1).properties.at("x").AsInt(), 2);
         EXPECT_EQ(g.edge(0).source, 1u);
       }},
      {"CRLF ends records", "id,labels,truth,x\r\n0,A,T,1\r\n",
       "src,tgt,labels,truth\r\n0,0,R,T\r\n", StatusCode::kOk,
       [](const PropertyGraph& g) {
         EXPECT_EQ(g.num_nodes(), 1u);
         EXPECT_EQ(g.num_edges(), 1u);
       }},
      {"trailing comma at end of file", kNodeHeader + "0,A,T,1,", kEdgeHeader,
       StatusCode::kParseError},
      {"trailing comma on the edge header", kNodeHeader,
       "src,tgt,labels,truth,\n", StatusCode::kOk},
      {"duplicate property columns: first non-empty wins",
       "id,labels,truth,x,y,x\n0,A,T,,1,2\n1,A,T,3,,4\n2,A,T,,,\n",
       kEdgeHeader, StatusCode::kOk,
       [](const PropertyGraph& g) {
         EXPECT_EQ(NodeText(g, 0, "x"), "2");
         EXPECT_EQ(NodeText(g, 0, "y"), "1");
         EXPECT_EQ(NodeText(g, 1, "x"), "3");
         EXPECT_EQ(NodeText(g, 1, "y"), "<absent>");
         EXPECT_TRUE(g.node(2).properties.empty());
       }},
      {"header-only files", kNodeHeader, kEdgeHeader, StatusCode::kOk,
       [](const PropertyGraph& g) {
         EXPECT_EQ(g.num_nodes(), 0u);
         EXPECT_EQ(g.num_edges(), 0u);
       }},
      {"header-only files without line breaks", "id,labels,truth",
       "src,tgt,labels,truth", StatusCode::kOk},
      {"labels split on semicolons", kNodeHeader + "0,B;A;;B,T,\n",
       kEdgeHeader, StatusCode::kOk,
       [](const PropertyGraph& g) {
         EXPECT_EQ(g.node(0).labels.get(),
                   (std::set<std::string>{"A", "B"}));
       }},
      {"quoted node id", kNodeHeader + "\"0\",A,T,1\n", kEdgeHeader,
       StatusCode::kOk},
      {"unterminated quote in the node file",
       kNodeHeader + "0,A,T,\"open\n1,A,T,2\n", kEdgeHeader,
       StatusCode::kParseError},
      {"unterminated quote in the edge file", kNodeHeader + "0,A,T,1\n",
       kEdgeHeader + "0,0,R,\"T\n", StatusCode::kParseError},
      {"empty node file", "", kEdgeHeader, StatusCode::kParseError},
      {"empty edge file", kNodeHeader, "", StatusCode::kParseError},
      {"blank line is a one-field record", kNodeHeader + "0,A,T,1\n\n",
       kEdgeHeader, StatusCode::kParseError},
      {"node id with a leading zero", kNodeHeader + "00,A,T,1\n", kEdgeHeader,
       StatusCode::kParseError},
      {"node id with a sign", kNodeHeader + "+0,A,T,1\n", kEdgeHeader,
       StatusCode::kParseError},
      {"node ids out of order", kNodeHeader + "1,A,T,1\n0,A,T,1\n",
       kEdgeHeader, StatusCode::kParseError},
      {"edge to a missing node", kNodeHeader + "0,A,T,1\n",
       kEdgeHeader + "0,1,R,T\n", StatusCode::kInvalidArgument},
  };
  for (const DialectCase& c : cases) {
    SCOPED_TRACE(c.name);
    auto loaded = GraphFromCsv(c.nodes, c.edges);
    if (c.code != StatusCode::kOk) {
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), c.code) << loaded.status();
      continue;
    }
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    if (c.check) c.check(*loaded);
    auto oracle = ReferenceGraphFromCsv(c.nodes, c.edges);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_TRUE(GraphsEqual(*loaded, *oracle));
    EXPECT_TRUE(InternedBytes(*loaded) == InternedBytes(*oracle));
  }
}

TEST(CsvIoTest, EdgeEndpointsMustBeCompleteUnsignedDecimals) {
  // Thirteen nodes, so "12abc" would otherwise name a real node.
  std::string nodes = "id,labels,truth\n";
  for (int i = 0; i < 13; ++i) nodes += std::to_string(i) + ",N,\n";
  for (const std::string bad :
       {"12abc", "-1", " 3", "3 ", "+3", "", "0x1", "18446744073709551616"}) {
    for (bool as_source : {true, false}) {
      SCOPED_TRACE("'" + bad + (as_source ? "' as src" : "' as tgt"));
      const std::string row =
          as_source ? bad + ",0,R,\n" : "0," + bad + ",R,\n";
      auto loaded = GraphFromCsv(nodes, kEdgeHeader + "1,2,R,\n" + row);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
      EXPECT_EQ(loaded.status().message(), "bad edge endpoint id in row 2");
    }
  }
  auto loaded = GraphFromCsv(nodes, kEdgeHeader + "12,012,R,\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->edge(0).source, 12u);
  EXPECT_EQ(loaded->edge(0).target, 12u);
}

// One seeded mutation of `text`: a byte flip (biased towards the bytes the
// dialect gives meaning to), a truncation, or a splice of a slice of
// `donor` over a slice of `text`.
void Mutate(std::string* text, const std::string& donor, Rng* rng) {
  static constexpr char kDialectBytes[] = {',', '"', '\n', '\r',
                                           ';', '0', '-', ' '};
  switch (rng->UniformU32(3)) {
    case 0:
      if (!text->empty()) {
        char& byte = (*text)[rng->UniformU32(text->size())];
        byte = rng->Bernoulli(0.5)
                   ? kDialectBytes[rng->UniformU32(sizeof(kDialectBytes))]
                   : static_cast<char>(rng->NextU32());
      }
      break;
    case 1:
      text->resize(rng->UniformU32(text->size() + 1));
      break;
    default: {
      const size_t from = rng->UniformU32(donor.size() + 1);
      const size_t len = rng->UniformU32(donor.size() - from + 1);
      const size_t at = rng->UniformU32(text->size() + 1);
      const size_t cut = rng->UniformU32(text->size() - at + 1);
      text->replace(at, cut, donor, from, len);
    }
  }
}

TEST(CsvIoTest, MutatedInputLoadsLikeOracleOrFailsCleanly) {
  const PropertyGraph g = MakeTrickyGraph();
  const std::string nodes = NodesToCsv(g);
  const std::string edges = EdgesToCsv(g);
  Rng rng(20261016);
  constexpr int kBudget = 4000;
  int loaded_count = 0;
  for (int i = 0; i < kBudget; ++i) {
    std::string n = nodes, e = edges;
    const int mutations = 1 + static_cast<int>(rng.UniformU32(3));
    for (int m = 0; m < mutations; ++m) {
      std::string* target = rng.Bernoulli(0.5) ? &n : &e;
      const std::string& donor = rng.Bernoulli(0.5) ? nodes : edges;
      Mutate(target, donor, &rng);
    }
    auto loaded = GraphFromCsv(n, e);
    if (!loaded.ok()) {
      const StatusCode code = loaded.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << "iteration " << i << ": " << loaded.status();
      continue;
    }
    ++loaded_count;
    auto oracle = ReferenceGraphFromCsv(n, e);
    ASSERT_TRUE(oracle.ok()) << "iteration " << i << ": " << oracle.status();
    EXPECT_TRUE(GraphsEqual(*loaded, *oracle)) << "iteration " << i;
    EXPECT_TRUE(InternedBytes(*loaded) == InternedBytes(*oracle))
        << "iteration " << i;
  }
  // The budget reaches the success path too, not only the error paths.
  EXPECT_GT(loaded_count, kBudget / 50);
}

}  // namespace
}  // namespace pghive
