// Tests for the CLI layer: argument parsing and the subcommands.

#include <gtest/gtest.h>

#include <climits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.h"
#include "cli/commands.h"
#include "common/csv.h"
#include "graph/csv_io.h"
#include "graph/graph_builder.h"

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
