// The drift subsystem's bit-identity invariant: discovering a mutation
// stream (inserts + deletes + updates, applied through the engine's
// retraction path) yields the SAME final post-processed schema — byte for
// byte, as schema JSON — as one-shot incremental discovery of the stream's
// net surviving elements (drift::NetSurvivingStream, same batch
// boundaries). Exercised for every evolution scenario under both LSH
// clustering backends and both thread counts, plus durable-store variants
// with a mid-stream crash + recovery. A companion suite checks the
// aggregates themselves: after every batch they equal a fresh fold of the
// survivors.

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/schema_json.h"
#include "datagen/evolution.h"
#include "drift/replay.h"
#include "graph/mutations.h"
#include "graph/property_graph.h"
#include "store/state_store.h"
#include "test_dir.h"
#include "text/label_embedder.h"

namespace pghive {
namespace {

/// Applies one batch to `g` and feeds it through the Feed/FeedMutations
/// dispatch the durable store uses (an empty insert-only batch is skipped).
Status FeedBatch(const MutationBatch& mb, PropertyGraph* g,
                 IncrementalDiscoverer* engine) {
  PGHIVE_ASSIGN_OR_RETURN(drift::AppliedBatch applied,
                          drift::ApplyMutationBatch(g, mb));
  if (applied.deleted_nodes.empty() && applied.deleted_edges.empty()) {
    if (applied.batch.num_nodes() == 0 && applied.batch.num_edges() == 0) {
      return Status::OK();
    }
    return engine->Feed(applied.batch);
  }
  return engine->FeedMutations(applied.batch, applied.deleted_nodes,
                               applied.deleted_edges);
}

/// Mutation-stream side: every batch through FeedBatch.
SchemaGraph DiscoverMutationStream(const std::vector<MutationBatch>& stream,
                                   const IncrementalOptions& opt) {
  PropertyGraph g;
  IncrementalDiscoverer engine(opt);
  for (const MutationBatch& mb : stream) {
    const Status s = FeedBatch(mb, &g, &engine);
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) break;
  }
  return engine.Finish(g);
}

/// Ground-truth side: the net surviving elements replayed insert-only with
/// the same batch boundaries.
SchemaGraph DiscoverSurvivors(const std::vector<MutationBatch>& stream,
                              const IncrementalOptions& opt) {
  auto net = drift::NetSurvivingStream(stream);
  EXPECT_TRUE(net.ok()) << net.status();
  PropertyGraph g;
  IncrementalDiscoverer engine(opt);
  for (const MutationBatch& mb : *net) {
    auto applied = drift::ApplyMutationBatch(&g, mb);
    EXPECT_TRUE(applied.ok()) << applied.status();
    if (!applied.ok()) break;
    if (applied->batch.num_nodes() == 0 && applied->batch.num_edges() == 0) {
      continue;  // a batch whose elements all died: boundary only
    }
    Status s = engine.Feed(applied->batch);
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) break;
  }
  return engine.Finish(g);
}

using EquivalenceParam =
    std::tuple<std::string, ClusteringMethod, int /*threads*/>;

class DriftEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(DriftEquivalenceTest, StreamSchemaMatchesSurvivorSchema) {
  const auto& [scenario_name, method, threads] = GetParam();
  auto scenario = MakeEvolutionScenario(scenario_name);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  IncrementalOptions opt;
  opt.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.pipeline.method = method;
  opt.pipeline.num_threads = threads;

  const SchemaGraph streamed = DiscoverMutationStream(scenario->stream, opt);
  const SchemaGraph survivors = DiscoverSurvivors(scenario->stream, opt);
  EXPECT_EQ(SchemaToJson(streamed), SchemaToJson(survivors));
  EXPECT_FALSE(streamed.node_types.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, DriftEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(EvolutionScenarioNames()),
                       ::testing::Values(ClusteringMethod::kElsh,
                                         ClusteringMethod::kMinHash),
                       ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<EquivalenceParam>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += std::get<1>(info.param) == ClusteringMethod::kElsh ? "_elsh"
                                                                 : "_minhash";
      name += "_t" + std::to_string(std::get<2>(info.param));
      return name;
    });

// Every aggregate component is a count, so retraction subtracts exactly:
// after each batch of a mutation stream, the engine's aggregates equal a
// fresh fold of the schema's surviving instance lists.
using FoldParam = std::tuple<std::string, ClusteringMethod>;

class DriftAggregatesTest : public ::testing::TestWithParam<FoldParam> {};

TEST_P(DriftAggregatesTest, RetractedStateEqualsFreshFold) {
  const auto& [scenario_name, method] = GetParam();
  auto scenario = MakeEvolutionScenario(scenario_name);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  IncrementalOptions opt;
  opt.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.pipeline.method = method;
  PropertyGraph g;
  IncrementalDiscoverer engine(opt);
  size_t mutation_batches = 0;
  for (size_t b = 0; b < scenario->stream.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const MutationBatch& mb = scenario->stream[b];
    const Status s = FeedBatch(mb, &g, &engine);
    ASSERT_TRUE(s.ok()) << s;
    if (!mb.mutations.empty()) ++mutation_batches;
    SchemaAggregates fresh;
    ASSERT_TRUE(fresh.FoldNew(g, engine.schema()));
    EXPECT_TRUE(engine.aggregates() == fresh);
  }
  EXPECT_GT(mutation_batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, DriftAggregatesTest,
    ::testing::Combine(::testing::ValuesIn(EvolutionScenarioNames()),
                       ::testing::Values(ClusteringMethod::kElsh,
                                         ClusteringMethod::kMinHash)),
    [](const ::testing::TestParamInfo<FoldParam>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) == ClusteringMethod::kElsh
                         ? "_elsh"
                         : "_minhash");
    });

// The invariant also holds under the default (Word2Vec) embedding: the
// batch corpora differ between the two sides (stream-side batches still
// contain the elements they later retract), so this pins that the scenario
// shape rules — separated label sets, per-type key vocabularies — make
// clustering resolve identically anyway.
TEST(DriftEquivalenceWord2VecTest, LabelChurnMatchesUnderDefaultEmbedding) {
  auto scenario = MakeEvolutionScenario("label-churn");
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  IncrementalOptions opt;  // default embedding backend
  const SchemaGraph streamed = DiscoverMutationStream(scenario->stream, opt);
  const SchemaGraph survivors = DiscoverSurvivors(scenario->stream, opt);
  EXPECT_EQ(SchemaToJson(streamed), SchemaToJson(survivors));
}

// --- Durable-store variants: the same invariant through journal + ---
// --- snapshot + recovery.                                          ---

store::StoreOptions FastStoreOptions() {
  store::StoreOptions opt;
  opt.incremental.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.fsync = false;
  opt.checkpoint_every_batches = 2;
  return opt;
}

std::string DurableFinish(store::DurableDiscoverer* store) {
  auto finished = store->Finish();
  EXPECT_TRUE(finished.ok()) << finished.status();
  return finished.ok() ? SchemaToJson(*finished) : std::string();
}

TEST(DriftDurableEquivalenceTest, RecoveredMidStreamRunMatchesUninterrupted) {
  const store::StoreOptions store_opt = FastStoreOptions();
  for (const EvolutionScenario& scenario : AllEvolutionScenarios()) {
    SCOPED_TRACE(scenario.name);
    const std::vector<MutationBatch>& stream = scenario.stream;
    const size_t cut = stream.size() / 2;
    ASSERT_GT(cut, 0u);

    // Uninterrupted durable run.
    const std::string base_dir = TestDir(scenario.name + "_base");
    std::string uninterrupted;
    {
      auto store = store::DurableDiscoverer::OpenOrRecover(base_dir, store_opt);
      ASSERT_TRUE(store.ok()) << store.status();
      for (const MutationBatch& mb : stream) {
        ASSERT_TRUE((*store)->Feed(mb).ok());
      }
      uninterrupted = DurableFinish(store->get());
    }

    // Crash after the cut: the batch at `cut` is journaled but NOT applied
    // (the exact crash window between append and apply), then the process
    // dies and a fresh open replays it.
    const std::string crash_dir = TestDir(scenario.name + "_crash");
    {
      auto store =
          store::DurableDiscoverer::OpenOrRecover(crash_dir, store_opt);
      ASSERT_TRUE(store.ok()) << store.status();
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE((*store)->Feed(stream[i]).ok());
      }
      ASSERT_TRUE((*store)->FeedJournalOnly(stream[cut]).ok());
      // Dropped without a checkpoint: recovery must replay from the journal.
    }
    std::string recovered;
    {
      store::RecoveryReport report;
      auto store = store::DurableDiscoverer::OpenOrRecover(crash_dir,
                                                           store_opt, &report);
      ASSERT_TRUE(store.ok()) << store.status();
      EXPECT_EQ((*store)->batches_applied(), cut + 1);
      EXPECT_GE(report.replayed_batches, 1u);
      for (size_t i = cut + 1; i < stream.size(); ++i) {
        ASSERT_TRUE((*store)->Feed(stream[i]).ok());
      }
      recovered = DurableFinish(store->get());
    }
    EXPECT_EQ(recovered, uninterrupted);

    // And both equal the engine-level survivors replay.
    const SchemaGraph survivors =
        DiscoverSurvivors(stream, store_opt.incremental);
    EXPECT_EQ(uninterrupted, SchemaToJson(survivors));
  }
}

}  // namespace
}  // namespace pghive
