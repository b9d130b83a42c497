// Tests for the CLI layer: argument parsing and the subcommands.

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.h"
#include "cli/commands.h"
#include "common/csv.h"
#include "core/schema_json.h"
#include "graph/csv_io.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_dir.h"

namespace pghive {
namespace {

Args MakeArgs(std::vector<std::string> tokens) {
  std::vector<const char*> argv = {"pghive"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  return Args::Parse(static_cast<int>(argv.size()), argv.data());
}

// ---------- Args ----------

TEST(ArgsTest, PositionalAndFlags) {
  Args args = MakeArgs({"discover", "graph", "--method", "minhash",
                        "--theta=0.8", "--no-post"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "discover");
  EXPECT_EQ(args.GetString("method"), "minhash");
  EXPECT_DOUBLE_EQ(args.GetDouble("theta", 0), 0.8);
  EXPECT_TRUE(args.GetBool("no-post"));
  EXPECT_FALSE(args.Has("missing"));
  EXPECT_EQ(args.GetInt("missing", 7), 7);
}

TEST(ArgsTest, BareFlagIsTrue) {
  Args args = MakeArgs({"cmd", "--strict"});
  EXPECT_TRUE(args.GetBool("strict"));
  EXPECT_FALSE(MakeArgs({"cmd", "--strict=false"}).GetBool("strict"));
}

TEST(ArgsTest, UnknownFlags) {
  Args args = MakeArgs({"cmd", "--known", "1", "--typo", "2"});
  auto unknown = args.UnknownFlags({"known"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

// --threads takes a plain non-negative decimal that fits in an int. The
// atoll-style parse it replaced read "abc" as 0 (every hardware thread),
// "2x" as 2 and 4294967297 as 1; each is now an error naming the flag.
TEST(ArgsTest, ThreadsParseStrictly) {
  for (const auto& [text, want] :
       std::vector<std::pair<std::string, int>>{
           {"0", 0}, {"1", 1}, {"8", 8}, {"007", 7}, {"2147483647", INT_MAX}}) {
    SCOPED_TRACE(text);
    Result<int> threads = MakeArgs({"cmd", "--threads", text}).GetThreads();
    ASSERT_TRUE(threads.ok()) << threads.status();
    EXPECT_EQ(*threads, want);
  }
  for (const char* text : {"abc", "2x", "4294967297", "2147483648", "-1",
                           "-0", "+2", " 3", "3 ", "1.5", "0x4", ""}) {
    SCOPED_TRACE(std::string("'") + text + "'");
    Result<int> threads =
        MakeArgs({"cmd", std::string("--threads=") + text}).GetThreads();
    ASSERT_FALSE(threads.ok());
    EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(threads.status().message().find("--threads"), std::string::npos);
  }
  // A bare --threads carries the value "true".
  EXPECT_FALSE(MakeArgs({"cmd", "--threads"}).GetThreads().ok());
}

// ---------- commands ----------

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    // Per-test path: ctest runs each test as its own process, and two
    // concurrently running CliTest processes must not race on the CSV.
    prefix_ = testing::TempDir() + "/pghive_cli_graph_" +
              testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(SaveGraphCsv(MakeFigure1Graph(), prefix_).ok());
  }

  std::string Run(std::vector<std::string> tokens, Status* status = nullptr) {
    std::ostringstream out;
    Status s = RunCliCommand(MakeArgs(std::move(tokens)), out);
    if (status != nullptr) *status = s;
    return out.str();
  }

  /// Writes a --deletions file next to the graph and returns its path.
  std::string WriteDeletions(const std::string& text) {
    const std::string path = prefix_ + ".deletions.txt";
    EXPECT_TRUE(WriteFile(path, text).ok());
    return path;
  }

  std::string prefix_;
};

TEST_F(CliTest, HelpByDefault) {
  Status s;
  std::string out = Run({}, &s);
  EXPECT_TRUE(s.ok());
  EXPECT_NE(out.find("commands:"), std::string::npos);
  EXPECT_NE(Run({"help"}).find("discover"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  Status s;
  Run({"frobnicate"}, &s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, DiscoverSummary) {
  Status s;
  std::string out = Run({"discover", prefix_}, &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.find("4 node types"), std::string::npos);
  EXPECT_NE(out.find("Person"), std::string::npos);
  EXPECT_NE(out.find("MANDATORY"), std::string::npos);
  // Figure-1 graph carries ground truth -> quality line present.
  EXPECT_NE(out.find("F1*"), std::string::npos);
}

TEST_F(CliTest, DiscoverPgSchemaAndXsd) {
  std::string pgs = Run({"discover", prefix_, "--format", "pgschema"});
  EXPECT_NE(pgs.find("CREATE GRAPH TYPE"), std::string::npos);
  EXPECT_NE(pgs.find("STRICT"), std::string::npos);
  std::string loose =
      Run({"discover", prefix_, "--format", "pgschema", "--mode", "loose"});
  EXPECT_NE(loose.find("LOOSE"), std::string::npos);
  std::string xsd = Run({"discover", prefix_, "--format", "xsd"});
  EXPECT_NE(xsd.find("<xs:schema"), std::string::npos);
}

TEST_F(CliTest, DiscoverMinHashAndIncremental) {
  Status s;
  std::string out =
      Run({"discover", prefix_, "--method", "minhash", "--incremental", "2"},
          &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.find("node type"), std::string::npos);
}

TEST_F(CliTest, DiscoverRejectsBadFlags) {
  Status s;
  Run({"discover", prefix_, "--method", "quantum"}, &s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Run({"discover", prefix_, "--theta", "1.5"}, &s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Run({"discover", prefix_, "--threads", "abc"}, &s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  Run({"discover"}, &s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, DiscoverMissingGraphFails) {
  Status s;
  Run({"discover", "/nonexistent/prefix"}, &s);
  EXPECT_FALSE(s.ok());
}

TEST_F(CliTest, GenerateThenStats) {
  std::string gen_prefix = testing::TempDir() + "/pghive_cli_pole";
  Status s;
  std::string out = Run({"generate", "POLE", gen_prefix, "--nodes", "200",
                         "--edges", "300", "--seed", "5"},
                        &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.find("200 nodes"), std::string::npos);

  std::string stats = Run({"stats", gen_prefix}, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_NE(stats.find("200"), std::string::npos);
  EXPECT_NE(stats.find("Dataset"), std::string::npos);
}

TEST_F(CliTest, GenerateUnknownDatasetFails) {
  Status s;
  Run({"generate", "NOPE", "/tmp/x"}, &s);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(CliTest, GenerateWithNoise) {
  std::string gen_prefix = testing::TempDir() + "/pghive_cli_noisy";
  Status s;
  Run({"generate", "POLE", gen_prefix, "--nodes", "150", "--edges", "200",
       "--labels", "0.0"},
      &s);
  ASSERT_TRUE(s.ok()) << s;
  auto g = LoadGraphCsv(gen_prefix).value();
  for (const auto& n : g.nodes()) EXPECT_TRUE(n.labels.empty());
}

TEST_F(CliTest, ValidateSelfPasses) {
  Status s;
  std::string out = Run({"validate", prefix_, prefix_}, &s);
  EXPECT_TRUE(s.ok()) << out;
  EXPECT_NE(out.find("elements valid"), std::string::npos);
}

TEST_F(CliTest, ValidateForeignDataFails) {
  // Validate an MB6 graph against the Figure-1 schema: nothing matches.
  std::string other = testing::TempDir() + "/pghive_cli_mb6";
  Status s;
  Run({"generate", "MB6", other, "--nodes", "100", "--edges", "100"}, &s);
  ASSERT_TRUE(s.ok());
  std::string out = Run({"validate", prefix_, other}, &s);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(out.find("NoMatchingType"), std::string::npos);
}

TEST_F(CliTest, DiffIdenticalGraphsEmpty) {
  Status s;
  std::string out = Run({"diff", prefix_, prefix_}, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_NE(out.find("no changes"), std::string::npos);
}

TEST_F(CliTest, DiffDetectsNewTypes) {
  // Same graph plus an extra labeled node type on one side.
  PropertyGraph g = MakeFigure1Graph();
  g.AddNode({"Gadget"}, {{"serial", Value::String("x1")}}, "Gadget");
  std::string extended = testing::TempDir() + "/pghive_cli_ext";
  ASSERT_TRUE(SaveGraphCsv(g, extended).ok());
  Status s;
  std::string out = Run({"diff", prefix_, extended}, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_NE(out.find("+ node types: Gadget"), std::string::npos);
}

TEST_F(CliTest, DiscoverJsonAndSavedSchemaValidate) {
  std::string schema_path = testing::TempDir() + "/pghive_cli_schema.json";
  Status s;
  std::string json =
      Run({"discover", prefix_, "--format", "json", "--save-schema",
           schema_path},
          &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(json.find("\"format\": \"pghive-schema\""), std::string::npos);

  // Validate the same graph against the saved schema file.
  std::string out = Run({"validate", prefix_, "--schema", schema_path}, &s);
  EXPECT_TRUE(s.ok()) << out;
  EXPECT_NE(out.find("elements valid"), std::string::npos);
}

TEST_F(CliTest, ValidateWithBadSchemaFileFails) {
  std::string path = testing::TempDir() + "/pghive_cli_bad_schema.json";
  ASSERT_TRUE(WriteFile(path, "{\"format\":\"nope\"}").ok());
  Status s;
  Run({"validate", prefix_, "--schema", path}, &s);
  EXPECT_FALSE(s.ok());
}

TEST_F(CliTest, DiscoverWithAliasFile) {
  // Rewrite Organization -> Org before discovery.
  std::string alias_path = testing::TempDir() + "/pghive_cli_aliases.txt";
  ASSERT_TRUE(WriteFile(alias_path,
                        "# test aliases\nOrganization = Org\n")
                  .ok());
  Status s;
  std::string out =
      Run({"discover", prefix_, "--aliases", alias_path}, &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.find("node type Org"), std::string::npos);
  EXPECT_EQ(out.find("node type Organization"), std::string::npos);
}

TEST_F(CliTest, DiscoverWithBadAliasFileFails) {
  std::string alias_path = testing::TempDir() + "/pghive_cli_bad_alias.txt";
  ASSERT_TRUE(WriteFile(alias_path, "no equals here\n").ok());
  Status s;
  Run({"discover", prefix_, "--aliases", alias_path}, &s);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

// Figure-1 ids: nodes 0 Bob, 1 John, 2 Alice, 3 FORTH, 4-5 Posts, 6 Place;
// edges 2 and 3 are the two LIKES edges into the Posts.
TEST_F(CliTest, DiscoverDeletionsRetireTypes) {
  const std::string path = WriteDeletions(
      "# both Posts and the LIKES edges into them\n"
      "node 4\nnode 5\n\nedge 2   # Alice LIKES post 1\nedge 3\n");
  Status s;
  std::string out = Run({"discover", prefix_, "--deletions", path}, &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.find("deletions: removed 2 node(s)/2 edge(s), retired 1 "
                     "node type(s)/1 edge type(s)\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("node type Post"), std::string::npos) << out;
  EXPECT_EQ(out.find("edge type LIKES"), std::string::npos) << out;
  EXPECT_NE(out.find("node type Person"), std::string::npos) << out;
}

TEST_F(CliTest, DiscoverEmptyDeletionsMatchesPlainDiscover) {
  const std::string path = WriteDeletions("# nothing to delete\n\n");
  Status s;
  const std::string plain = Run({"discover", prefix_, "--format", "json"}, &s);
  ASSERT_TRUE(s.ok()) << s;
  const std::string deleted = Run(
      {"discover", prefix_, "--format", "json", "--deletions", path}, &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(deleted,
            "deletions: removed 0 node(s)/0 edge(s), retired 0 node type(s)/"
            "0 edge type(s)\n" + plain);
}

TEST_F(CliTest, DiscoverDeletionsIncremental) {
  const std::string path = WriteDeletions("node 4\nnode 5\nedge 2\nedge 3\n");
  Status s;
  std::string out = Run({"discover", prefix_, "--incremental", "2",
                         "--deletions", path},
                        &s);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_NE(out.find("deletions: removed 2 node(s)/2 edge(s)"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("node type Post"), std::string::npos) << out;
}

TEST_F(CliTest, DiscoverRejectsBadDeletionsFiles) {
  // Each file is InvalidArgument with a message naming the line or the id.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"node 2abc\n", ".deletions.txt:1: expected"},
      {"edge -1\n", ".deletions.txt:1: expected"},
      {"# ok\nedge 0\nnode 3 4\n", ".deletions.txt:3: expected"},
      {"edge 18446744073709551616\n", ".deletions.txt:1: expected"},
      {"vertex 1\n", ".deletions.txt:1: expected"},
      {"node\n", ".deletions.txt:1: expected"},
      {"node 99999999\n", "deleted node 99999999 does not exist"},
      {"edge 6\n", "deleted edge 6 does not exist"},
      {"edge 1\nedge 1\n", "deleted edge 1 deleted twice"},
      {"node 6\n", "deleted node 6 keeps incident edge 5"},
  };
  for (const auto& [text, want] : cases) {
    SCOPED_TRACE(text);
    Status s;
    Run({"discover", prefix_, "--deletions", WriteDeletions(text)}, &s);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
    EXPECT_NE(s.message().find(want), std::string::npos) << s;
  }
}

TEST_F(CliTest, DiscoverDeletionsRejectsStateDir) {
  Status s;
  Run({"discover", prefix_, "--deletions", WriteDeletions("edge 0\n"),
       "--state-dir", TestDir("cli_deletions_state")},
      &s);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
}

// --no-post leaves the schema unfinished on every discovery route: no
// constraint entries, and every edge type at cardinality "?" with zero
// degrees.
TEST_F(CliTest, NoPostHonouredByIncrementalAndDurableRuns) {
  const std::string state_dir = TestDir("cli_no_post_state");
  const std::vector<std::vector<std::string>> runs = {
      {},
      {"--incremental", "4"},
      {"--incremental", "4", "--state-dir", state_dir},
  };
  for (const auto& extra : runs) {
    const std::string schema_path = prefix_ + ".no_post.json";
    std::vector<std::string> tokens = {"discover", prefix_, "--no-post",
                                       "--save-schema", schema_path};
    tokens.insert(tokens.end(), extra.begin(), extra.end());
    SCOPED_TRACE(tokens.size());
    Status s;
    Run(tokens, &s);
    ASSERT_TRUE(s.ok()) << s;
    auto schema = LoadSchemaJson(schema_path);
    ASSERT_TRUE(schema.ok()) << schema.status();
    ASSERT_FALSE(schema->edge_types.empty());
    for (const auto& t : schema->node_types) {
      EXPECT_TRUE(t.constraints.empty()) << t.name;
    }
    for (const auto& t : schema->edge_types) {
      EXPECT_TRUE(t.constraints.empty()) << t.name;
      EXPECT_EQ(t.cardinality, SchemaCardinality::kUnknown) << t.name;
      EXPECT_EQ(t.max_out_degree, 0u) << t.name;
      EXPECT_EQ(t.max_in_degree, 0u) << t.name;
    }
  }
}

// `discover` hangs its whole run off one root span, so --metrics-out alone
// attributes the wall time: loading, discovery, output and teardown are the
// root's direct children.
TEST_F(CliTest, DiscoverSpansNestUnderOneRoot) {
  obs::Tracer::Global().Clear();
  Status s;
  Run({"discover", prefix_, "--format", "json", "--metrics-out",
       prefix_ + ".metrics.jsonl"},
      &s);
  obs::Tracer::Global().SetEnabled(false);
  obs::SetMetricsEnabled(false);
  const std::vector<obs::SpanEvent> spans =
      obs::Tracer::Global().CollectSpans();
  obs::Tracer::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  ASSERT_TRUE(s.ok()) << s;

  uint64_t root = 0;
  for (const auto& span : spans) {
    if (span.name != "cli.discover") continue;
    EXPECT_EQ(root, 0u) << "more than one cli.discover span";
    EXPECT_EQ(span.parent, 0u);
    root = span.id;
  }
  ASSERT_NE(root, 0u);
  std::set<std::string> children;
  for (const auto& span : spans) {
    if (span.parent == root) children.insert(span.name);
  }
  EXPECT_EQ(children,
            (std::set<std::string>{"cli.teardown", "graph.from_csv",
                                   "output.format", "pipeline.discover"}));
}

TEST_F(CliTest, DatasetsLists) {
  Status s;
  std::string out = Run({"datasets"}, &s);
  ASSERT_TRUE(s.ok());
  for (const char* name :
       {"POLE", "MB6", "HET.IO", "FIB25", "ICIJ", "CORD19", "LDBC", "IYP"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace pghive
