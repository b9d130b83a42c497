// Property-based tests: invariants of the paper's §4.7 guarantees, checked
// over parameterized sweeps of seeds, datasets and noise levels.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/incremental.h"
#include "core/pgschema_parser.h"
#include "core/pipeline.h"
#include "core/serialization.h"
#include "core/validation.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "datagen/noise.h"
#include "eval/f1.h"
#include "lsh/collision_model.h"
#include "lsh/minhash_lsh.h"

namespace pghive {
namespace {

struct CaseParam {
  const char* dataset;
  uint64_t seed;
  double noise;
  double label_availability;
};

std::ostream& operator<<(std::ostream& os, const CaseParam& p) {
  return os << p.dataset << "_seed" << p.seed << "_noise"
            << static_cast<int>(p.noise * 100) << "_lab"
            << static_cast<int>(p.label_availability * 100);
}

PropertyGraph MakeCase(const CaseParam& p) {
  auto spec = DatasetSpecByName(p.dataset).value();
  GenerateOptions gen;
  gen.num_nodes = 600;
  gen.num_edges = 1200;
  gen.seed = p.seed;
  auto g = GenerateGraph(spec, gen).value();
  NoiseOptions nopt;
  nopt.property_removal = p.noise;
  nopt.label_availability = p.label_availability;
  nopt.seed = p.seed + 1;
  return InjectNoise(g, nopt).value();
}

class SchemaInvariantsTest : public testing::TestWithParam<CaseParam> {};

// §4.7 "Type completeness": for every node there is a type covering its
// labels and properties; symmetrically for edges. Nothing is lost.
TEST_P(SchemaInvariantsTest, TypeCompleteness) {
  PropertyGraph g = MakeCase(GetParam());
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());

  std::vector<int> node_type(g.num_nodes(), -1);
  for (size_t t = 0; t < schema->node_types.size(); ++t) {
    for (NodeId id : schema->node_types[t].instances) node_type[id] = t;
  }
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    ASSERT_GE(node_type[i], 0);
    const auto& t = schema->node_types[node_type[i]];
    for (const auto& l : g.node(i).labels) EXPECT_TRUE(t.labels.count(l));
    for (const auto& [k, v] : g.node(i).properties) {
      EXPECT_TRUE(t.property_keys.count(k));
    }
  }
  std::vector<int> edge_type(g.num_edges(), -1);
  for (size_t t = 0; t < schema->edge_types.size(); ++t) {
    for (EdgeId id : schema->edge_types[t].instances) edge_type[id] = t;
  }
  for (size_t i = 0; i < g.num_edges(); ++i) {
    ASSERT_GE(edge_type[i], 0);
    const auto& t = schema->edge_types[edge_type[i]];
    for (const auto& l : g.edge(i).labels) EXPECT_TRUE(t.labels.count(l));
    for (const auto& [k, v] : g.edge(i).properties) {
      EXPECT_TRUE(t.property_keys.count(k));
    }
  }
}

// §4.7 "Property constraints": MANDATORY implies present in every instance.
TEST_P(SchemaInvariantsTest, MandatorySoundness) {
  PropertyGraph g = MakeCase(GetParam());
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  for (const auto& t : schema->node_types) {
    for (const auto& [key, c] : t.constraints) {
      if (!c.mandatory) continue;
      for (NodeId id : t.instances) {
        EXPECT_TRUE(g.node(id).HasProperty(key))
            << t.name << "." << key << " marked mandatory but missing";
      }
    }
  }
  for (const auto& t : schema->edge_types) {
    for (const auto& [key, c] : t.constraints) {
      if (!c.mandatory) continue;
      for (EdgeId id : t.instances) {
        EXPECT_TRUE(g.edge(id).HasProperty(key));
      }
    }
  }
}

// §4.7 "Data type inference": the inferred datatype is compatible with
// every observed value (possibly generalized to String).
TEST_P(SchemaInvariantsTest, DataTypeCompatibility) {
  PropertyGraph g = MakeCase(GetParam());
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  auto compatible = [](DataType inferred, DataType observed) {
    return inferred == observed || inferred == DataType::kString ||
           (inferred == DataType::kDouble && observed == DataType::kInt) ||
           (inferred == DataType::kTimestamp && observed == DataType::kDate);
  };
  for (const auto& t : schema->node_types) {
    for (NodeId id : t.instances) {
      for (const auto& [k, v] : g.node(id).properties) {
        auto it = t.constraints.find(k);
        ASSERT_NE(it, t.constraints.end());
        EXPECT_TRUE(compatible(it->second.type, v.type()))
            << t.name << "." << k << ": " << DataTypeName(it->second.type)
            << " vs observed " << DataTypeName(v.type());
      }
    }
  }
}

// §4.7 "Cardinalities": (max_out, max_in) are sound upper bounds on the
// observed per-endpoint fan counts.
TEST_P(SchemaInvariantsTest, CardinalityUpperBounds) {
  PropertyGraph g = MakeCase(GetParam());
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  for (const auto& t : schema->edge_types) {
    std::map<NodeId, std::set<NodeId>> out, in;
    for (EdgeId id : t.instances) {
      out[g.edge(id).source].insert(g.edge(id).target);
      in[g.edge(id).target].insert(g.edge(id).source);
    }
    for (const auto& [s, tgts] : out) {
      EXPECT_LE(tgts.size(), t.max_out_degree);
    }
    for (const auto& [s, srcs] : in) {
      EXPECT_LE(srcs.size(), t.max_in_degree);
    }
  }
}

// The discovered schema LOOSE-validates the very graph it was discovered
// from (discovery and validation are inverse views of coverage).
TEST_P(SchemaInvariantsTest, DiscoveredSchemaValidatesOwnGraph) {
  PropertyGraph g = MakeCase(GetParam());
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  ValidationReport report = ValidateGraph(g, *schema, {});
  EXPECT_TRUE(report.valid()) << report.Summary();
}

// serialize -> parse -> serialize is a fixpoint: the second serialization
// is byte-identical to the first (modulo the recovered type names feeding
// the same sanitizer).
TEST_P(SchemaInvariantsTest, PgSchemaSerializationFixpoint) {
  PropertyGraph g = MakeCase(GetParam());
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  std::string first = ToPgSchema(*schema, "G", PgSchemaMode::kStrict);
  auto parsed = ParsePgSchema(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::string second = ToPgSchema(parsed->schema, "G", PgSchemaMode::kStrict);
  EXPECT_EQ(first, second);
}

// §4.6 "Incrementality": the schema sequence is a monotone chain.
TEST_P(SchemaInvariantsTest, IncrementalMonotoneChain) {
  PropertyGraph g = MakeCase(GetParam());
  IncrementalDiscoverer discoverer;
  SchemaGraph previous;
  for (const auto& batch : SplitIntoBatches(g, 4)) {
    ASSERT_TRUE(discoverer.Feed(batch).ok());
    EXPECT_TRUE(SchemaCovers(discoverer.schema(), previous));
    previous = discoverer.schema();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchemaInvariantsTest,
    testing::Values(CaseParam{"POLE", 1, 0.0, 1.0},
                    CaseParam{"POLE", 2, 0.4, 0.5},
                    CaseParam{"MB6", 3, 0.2, 1.0},
                    CaseParam{"MB6", 4, 0.4, 0.0},
                    CaseParam{"HET.IO", 5, 0.2, 0.5},
                    CaseParam{"ICIJ", 6, 0.3, 0.5},
                    CaseParam{"ICIJ", 7, 0.4, 0.0},
                    CaseParam{"CORD19", 8, 0.1, 1.0},
                    CaseParam{"LDBC", 9, 0.2, 0.5},
                    CaseParam{"IYP", 10, 0.2, 1.0}));

// ---------- MinHash estimator accuracy over random sets ----------

class MinHashEstimateTest : public testing::TestWithParam<int> {};

TEST_P(MinHashEstimateTest, AgreementTracksTrueJaccard) {
  uint64_t seed = GetParam();
  Rng rng(seed);
  MinHashLshOptions opt;
  opt.num_hashes = 256;
  opt.seed = seed;
  auto lsh = MinHashLsh::Create(opt).value();
  for (int trial = 0; trial < 10; ++trial) {
    // Random overlapping sets.
    std::set<std::string> a, b;
    size_t shared = 1 + rng.UniformU32(20);
    size_t only_a = rng.UniformU32(20);
    size_t only_b = rng.UniformU32(20);
    for (size_t i = 0; i < shared; ++i) {
      a.insert("s" + std::to_string(i));
      b.insert("s" + std::to_string(i));
    }
    for (size_t i = 0; i < only_a; ++i) a.insert("a" + std::to_string(i));
    for (size_t i = 0; i < only_b; ++i) b.insert("b" + std::to_string(i));
    double truth = static_cast<double>(shared) /
                   static_cast<double>(shared + only_a + only_b);
    auto sa = lsh.Signature({a.begin(), a.end()});
    auto sb = lsh.Signature({b.begin(), b.end()});
    double est = MinHashLsh::SignatureAgreement(sa, sb);
    // 256 hashes: standard error <= 0.5/16; allow 4 sigma.
    EXPECT_NEAR(est, truth, 0.13);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinHashEstimateTest,
                         testing::Values(11, 22, 33, 44, 55));

// ---------- ELSH collision probability vs theory ----------

class ElshTheoryTest : public testing::TestWithParam<double> {};

TEST_P(ElshTheoryTest, EmpiricalCollisionMatchesClosedForm) {
  double distance = GetParam();
  const double bucket = 2.0;
  EuclideanLshOptions opt;
  opt.bucket_length = bucket;
  opt.num_tables = 400;  // 400 independent single-projection tables
  opt.hashes_per_table = 1;
  opt.seed = 99;
  auto lsh = EuclideanLsh::Create(8, opt).value();

  Rng rng(1234);
  double hits = 0, total = 0;
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<float> a(8), b(8);
    std::vector<double> dir(8);
    double n = 0;
    for (auto& d : dir) {
      d = rng.Normal();
      n += d * d;
    }
    n = std::sqrt(n);
    for (int i = 0; i < 8; ++i) {
      a[i] = static_cast<float>(rng.Normal());
      b[i] = a[i] + static_cast<float>(distance * dir[i] / n);
    }
    auto ka = lsh.Hash(a);
    auto kb = lsh.Hash(b);
    for (size_t t = 0; t < ka.size(); ++t) {
      hits += ka[t] == kb[t];
      ++total;
    }
  }
  double empirical = hits / total;
  double theory = ElshCollisionProbability(distance, bucket);
  EXPECT_NEAR(empirical, theory, 0.05) << "d=" << distance;
}

INSTANTIATE_TEST_SUITE_P(Distances, ElshTheoryTest,
                         testing::Values(0.25, 0.5, 1.0, 2.0, 4.0, 8.0));

// ---------- noise robustness property of the full pipeline ----------

// The dataset is a std::string, not a const char*: gtest prints a char
// pointer with its address, which would put a per-run address into the
// test name.
class RobustnessTest
    : public testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(RobustnessTest, FullyLabeledDiscoveryStaysAccurateUnderNoise) {
  auto [dataset, noise] = GetParam();
  auto spec = DatasetSpecByName(dataset).value();
  GenerateOptions gen;
  gen.num_nodes = 800;
  gen.num_edges = 1600;
  auto clean = GenerateGraph(spec, gen).value();
  NoiseOptions nopt;
  nopt.property_removal = noise;
  auto g = InjectNoise(clean, nopt).value();
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  ASSERT_TRUE(schema.ok());
  // The paper's headline: F1* above 0.9 under property noise when labels
  // are available.
  EXPECT_GT(MajorityF1Nodes(g, *schema).f1, 0.9);
  EXPECT_GT(MajorityF1Edges(g, *schema).f1, 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RobustnessTest,
    testing::Combine(testing::Values("POLE", "MB6", "ICIJ", "LDBC"),
                     testing::Values(0.0, 0.2, 0.4)));

}  // namespace
}  // namespace pghive
