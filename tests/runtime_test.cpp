// Tests for the task-parallel execution runtime (src/runtime/) and its
// headline invariant: DiscoverSchema output is bit-identical at 1, 2 and 8
// threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace pghive {
namespace {

TEST(ThreadPoolTest, CompletesAllSubmittedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor drains the queue before joining.
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  while (!ran.load()) std::this_thread::yield();
}

TEST(ThreadPoolTest, ThreadCountResolution) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);  // hardware concurrency
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, EnvFallback) {
  unsetenv("PGHIVE_THREADS");
  EXPECT_EQ(ThreadCountFromEnv(1), 1);
  setenv("PGHIVE_THREADS", "6", 1);
  EXPECT_EQ(ThreadCountFromEnv(1), 6);
  setenv("PGHIVE_THREADS", "0", 1);
  EXPECT_EQ(ThreadCountFromEnv(5), 0);  // 0 = hardware, passed through
  setenv("PGHIVE_THREADS", "garbage", 1);
  EXPECT_EQ(ThreadCountFromEnv(2), 2);
  setenv("PGHIVE_THREADS", "-3", 1);
  EXPECT_EQ(ThreadCountFromEnv(2), 2);
  unsetenv("PGHIVE_THREADS");
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const size_t n = 10000;
  std::vector<int> hits(n, 0);
  ParallelFor(
      &pool, n, [&](size_t i) { ++hits[i]; }, /*grain=*/64);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, SequentialFallbackOnNullPool) {
  std::vector<int> hits(100, 0);
  ParallelFor(nullptr, hits.size(), [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(
          &pool, 1000,
          [](size_t i) {
            if (i == 137) throw std::runtime_error("boom");
          },
          /*grain=*/32),
      std::runtime_error);
}

TEST(ParallelForTest, LowestChunkExceptionWins) {
  // Indices 100 (chunk 3 at grain 32) and 900 (chunk 28) both throw; the
  // rethrown exception must deterministically be the lower chunk's.
  ThreadPool pool(4);
  std::string message;
  try {
    ParallelFor(
        &pool, 1000,
        [](size_t i) {
          if (i == 100) throw std::runtime_error("low");
          if (i == 900) throw std::runtime_error("high");
        },
        /*grain=*/32);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "low");
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(3);
  auto out = ParallelMap(
      &pool, 1000, [](size_t i) { return i * i; }, /*grain=*/16);
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

// --- Pipeline determinism: the tentpole invariant. ---

std::string DiscoverFingerprint(const PropertyGraph& g, ClusteringMethod m,
                                int num_threads, bool sample_datatypes) {
  PipelineOptions opt;
  opt.method = m;
  opt.num_threads = num_threads;
  opt.datatypes.sample = sample_datatypes;
  PgHivePipeline pipeline(opt);
  auto schema = pipeline.DiscoverSchema(g);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  SchemaJsonOptions json_opt;
  json_opt.include_instances = true;  // full type/property/instance state
  return SchemaToJson(*schema, json_opt);
}

TEST(PipelineParallelismTest, SchemaIdenticalAt1And2And8Threads) {
  struct Case {
    const char* name;
    PropertyGraph graph;
  };
  GenerateOptions gen;
  gen.num_nodes = 900;
  gen.num_edges = 1600;
  std::vector<Case> cases;
  cases.push_back({"POLE", GenerateGraph(MakePoleSpec(), gen).value()});
  cases.push_back({"ICIJ", GenerateGraph(MakeIcijSpec(), gen).value()});

  for (const auto& c : cases) {
    for (ClusteringMethod m :
         {ClusteringMethod::kElsh, ClusteringMethod::kMinHash}) {
      const std::string baseline =
          DiscoverFingerprint(c.graph, m, /*num_threads=*/1,
                              /*sample_datatypes=*/false);
      for (int threads : {2, 8}) {
        EXPECT_EQ(DiscoverFingerprint(c.graph, m, threads, false), baseline)
            << c.name << " " << ClusteringMethodName(m) << " threads="
            << threads;
      }
    }
  }
}

TEST(PipelineParallelismTest, SampledDatatypesIdenticalAcrossThreadCounts) {
  // The sampling RNG is consumed on the calling thread in (type, key)
  // order, so even the sampled datatype path is thread-count independent.
  GenerateOptions gen;
  gen.num_nodes = 1200;
  gen.num_edges = 2000;
  auto g = GenerateGraph(MakePoleSpec(), gen).value();
  const std::string baseline = DiscoverFingerprint(
      g, ClusteringMethod::kElsh, 1, /*sample_datatypes=*/true);
  EXPECT_EQ(DiscoverFingerprint(g, ClusteringMethod::kElsh, 8, true),
            baseline);
}

TEST(PipelineParallelismTest, PoolOnlyCreatedWhenParallel) {
  auto g = GenerateGraph(MakePoleSpec(), {}).value();
  PipelineOptions opt;  // num_threads = 1
  PgHivePipeline sequential(opt);
  ASSERT_TRUE(sequential.DiscoverSchema(g).ok());
  EXPECT_EQ(sequential.thread_pool(), nullptr);

  opt.num_threads = 2;
  PgHivePipeline parallel(opt);
  ASSERT_TRUE(parallel.DiscoverSchema(g).ok());
  ASSERT_NE(parallel.thread_pool(), nullptr);
  EXPECT_EQ(parallel.thread_pool()->num_threads(), 2);
}

TEST(PipelineParallelismTest, StageTimingsPopulated) {
  auto g = GenerateGraph(MakePoleSpec(), {}).value();
  PgHivePipeline pipeline;
  ASSERT_TRUE(pipeline.DiscoverSchema(g).ok());
  const StageTimings& t = pipeline.last_diagnostics().timings;
  EXPECT_GT(t.embed_train, 0.0);
  EXPECT_GT(t.encode_nodes, 0.0);
  EXPECT_GT(t.cluster_nodes, 0.0);
  EXPECT_GT(t.encode_edges, 0.0);
  EXPECT_GT(t.cluster_edges, 0.0);
  EXPECT_GT(t.post_process, 0.0);
  EXPECT_GT(t.cluster_nodes_project, 0.0);
  EXPECT_GT(t.cluster_nodes_hash, 0.0);
  EXPECT_GT(t.cluster_edges_project, 0.0);
  EXPECT_GT(t.cluster_edges_hash, 0.0);

  // The incremental Feed clusters through the same path, so its batches
  // fill the project/hash sub-timings too, at any thread count.
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    IncrementalOptions opt;
    opt.pipeline.num_threads = threads;
    IncrementalDiscoverer disc(opt);
    for (const GraphBatch& batch : SplitIntoBatches(g, 4)) {
      ASSERT_TRUE(disc.Feed(batch).ok());
      const StageTimings& bt = disc.last_diagnostics().timings;
      EXPECT_GT(bt.cluster_nodes_project, 0.0);
      EXPECT_GT(bt.cluster_nodes_hash, 0.0);
      EXPECT_GT(bt.cluster_edges_project, 0.0);
      EXPECT_GT(bt.cluster_edges_hash, 0.0);
    }
  }
}

}  // namespace
}  // namespace pghive
