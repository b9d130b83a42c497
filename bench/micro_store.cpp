// Microbenchmarks for the durable state store (src/store/): snapshot
// encode/decode (sequential vs through the execution runtime's pool),
// journal append throughput with and without fsync, and full
// OpenOrRecover recovery cost.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/binary_io.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "runtime/thread_pool.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "store/state_store.h"

namespace pghive {
namespace store {
namespace {

const PropertyGraph& BenchGraph() {
  static const PropertyGraph* g = [] {
    GenerateOptions gen;
    gen.num_nodes = 4000;
    gen.num_edges = 8000;
    return new PropertyGraph(
        GenerateGraph(DatasetSpecByName("POLE").value(), gen).value());
  }();
  return *g;
}

StoreSnapshot BenchSnapshot() {
  StoreSnapshot snap;
  snap.applied_batches = 10;
  snap.options_summary = "bench";
  snap.graph = BenchGraph();
  snap.batch_seconds.assign(10, 0.25);
  return snap;
}

std::string BenchDir(const std::string& name) {
  std::string dir =
      std::filesystem::temp_directory_path().string() + "/pghive_bench_" +
      name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void BM_SnapshotEncode(benchmark::State& state) {
  // arg: worker threads for the per-section fan-out (0 = sequential).
  const StoreSnapshot snap = BenchSnapshot();
  std::unique_ptr<ThreadPool> pool;
  if (state.range(0) > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<int>(state.range(0)));
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::string encoded = EncodeSnapshot(snap, pool.get());
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_SnapshotEncode)->Arg(0)->Arg(2)->Arg(4);

void BM_SnapshotDecode(benchmark::State& state) {
  const std::string bytes = EncodeSnapshot(BenchSnapshot());
  for (auto _ : state) {
    auto snap = DecodeSnapshot(bytes);
    benchmark::DoNotOptimize(snap);
  }
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_SnapshotDecode);

void BM_Crc32(benchmark::State& state) {
  const std::string bytes = EncodeSnapshot(BenchSnapshot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * bytes.size());
}
BENCHMARK(BM_Crc32);

void BM_JournalAppend(benchmark::State& state) {
  // arg: fsync per append (the durability the recovery guarantee rests on)
  // vs buffered appends.
  const bool fsync = state.range(0) == 1;
  std::vector<BatchPayload> batches = MakeStreamBatches(BenchGraph(), 10);
  BinaryWriter payload;
  EncodeBatchPayloadV3(batches[0], &payload);
  std::string dir = BenchDir("journal");

  uint64_t id = 0;
  JournalWriter writer;
  if (!writer.Open(dir + "/journal-0.wal", fsync).ok()) {
    state.SkipWithError("cannot open journal");
    return;
  }
  for (auto _ : state) {
    Status s = writer.Append(id++, payload.buffer());
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1);

void BM_OpenOrRecover(benchmark::State& state) {
  // Recovery of a state directory holding one snapshot plus `range`
  // journaled-but-unapplied batches to replay through the pipeline.
  const size_t replay = static_cast<size_t>(state.range(0));
  StoreOptions opt;
  opt.incremental.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.fsync = false;
  opt.checkpoint_every_batches = 0;
  opt.checkpoint_every_bytes = 0;
  std::vector<BatchPayload> batches = MakeStreamBatches(BenchGraph(), 8);
  std::string dir = BenchDir("recover_" + std::to_string(replay));
  {
    auto store = DurableDiscoverer::OpenOrRecover(dir, opt).value();
    size_t applied = batches.size() - replay;
    for (size_t i = 0; i < applied; ++i) {
      if (!store->Feed(batches[i]).ok()) {
        state.SkipWithError("feed failed");
        return;
      }
    }
    if (!store->Checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
    for (size_t i = applied; i < batches.size(); ++i) {
      if (!store->FeedJournalOnly(batches[i]).ok()) {
        state.SkipWithError("journal failed");
        return;
      }
      break;  // FeedJournalOnly only stages one batch; replay >= 1 suffices
    }
  }
  for (auto _ : state) {
    auto store = DurableDiscoverer::OpenOrRecover(dir, opt);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(store);
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_OpenOrRecover)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace store
}  // namespace pghive

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The store counters (journal_records/bytes, fsync latency when metrics
  // are on) accumulate during the runs; honor the CLI's env vars on exit.
  pghive::bench::ExportObsFromEnv();
  return 0;
}
