// Durable state store (src/store/): binary io, codecs, snapshot format,
// write-ahead journal, and the checkpoint/recovery path — including the
// crash-consistency guarantee that a run killed between journal append and
// apply converges to the exact schema of an uninterrupted run.

#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/csv.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "store/state_store.h"
#include "test_dir.h"

namespace pghive {
namespace store {
namespace {

PropertyGraph MakeTestGraph() {
  auto spec = DatasetSpecByName("POLE").value();
  GenerateOptions gen;
  gen.num_nodes = 240;
  gen.num_edges = 480;
  gen.seed = 99;
  return GenerateGraph(spec, gen).value();
}

StoreOptions FastOptions() {
  StoreOptions opt;
  // Hash embeddings keep the per-batch pipeline cheap, and no fsync keeps
  // the many small appends fast; neither affects the determinism under test.
  opt.incremental.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.fsync = false;
  opt.checkpoint_every_batches = 2;
  return opt;
}

void CorruptByteAt(const std::string& path, size_t offset_from_end) {
  std::string bytes = ReadFile(path).value();
  ASSERT_GT(bytes.size(), offset_from_end);
  bytes[bytes.size() - 1 - offset_from_end] ^= 0x5a;
  ASSERT_TRUE(WriteFile(path, bytes).ok());
}

// --- Binary primitives. ---

TEST(BinaryIoTest, RoundTripsScalars) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(1ull << 63);
  w.WriteDouble(-0.1);
  w.WriteString("hello");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 7);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 1ull << 63);
  EXPECT_EQ(r.ReadDouble().value(), -0.1);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, TruncatedReadsFailWithoutCrashing) {
  BinaryWriter w;
  w.WriteU64(42);
  for (size_t len = 0; len < 8; ++len) {
    BinaryReader r(std::string_view(w.buffer()).substr(0, len));
    EXPECT_FALSE(r.ReadU64().ok()) << len;
  }
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());  // 42-byte string declared, 0 present
}

TEST(BinaryIoTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_NE(Crc32("123456789"), Crc32("123456780"));
}

// --- Codecs. ---

TEST(CodecTest, GraphRoundTripsExactly) {
  PropertyGraph g = MakeTestGraph();
  BinaryWriter w;
  EncodeGraph(g, &w);
  BinaryReader r(w.buffer());
  auto decoded = DecodeGraph(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(GraphsEqual(g, *decoded));

  BinaryWriter again;
  EncodeGraph(*decoded, &again);
  EXPECT_EQ(w.buffer(), again.buffer());  // bit-identical re-encode
}

TEST(CodecTest, BatchPayloadRejectsTrailingBytes) {
  // An empty v1 payload (node count 0, edge count 0), then one stray byte.
  BinaryWriter w;
  w.WriteU64(0);
  w.WriteU64(0);
  w.WriteU8(0);
  BinaryReader r(w.buffer());
  auto decoded = DecodeBatchPayload(&r);
  EXPECT_FALSE(decoded.ok());
}

TEST(CodecTest, GraphDecodeNeverCrashesOnGarbage) {
  BinaryWriter w;
  EncodeGraph(MakeTestGraph(), &w);
  const std::string& good = w.buffer();
  for (size_t len : {0ul, 1ul, 5ul, good.size() / 2, good.size() - 1}) {
    BinaryReader r(std::string_view(good).substr(0, len));
    EXPECT_FALSE(DecodeGraph(&r).ok()) << "prefix " << len;
  }
  std::string garbage(200, '\xff');
  BinaryReader r(garbage);
  EXPECT_FALSE(DecodeGraph(&r).ok());
}

// --- Snapshot format. ---

StoreSnapshot MakeSnapshot() {
  StoreSnapshot snap;
  snap.applied_batches = 3;
  snap.options_fingerprint = 0x1234;
  snap.options_summary = "test";
  snap.graph = MakeTestGraph();
  snap.batch_seconds = {0.5, 0.25, 0.125};
  snap.aliases = {{"Firm", "Organisation"}, {"Org", "Organisation"}};
  snap.node_lsh.mu = 1.5;
  snap.node_lsh.num_tables = 12;
  snap.node_clusters = 9;
  return snap;
}

TEST(SnapshotTest, RoundTripsBitIdentically) {
  StoreSnapshot snap = MakeSnapshot();
  std::string bytes = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->applied_batches, snap.applied_batches);
  EXPECT_EQ(decoded->options_summary, snap.options_summary);
  EXPECT_EQ(decoded->batch_seconds, snap.batch_seconds);
  EXPECT_EQ(decoded->aliases, snap.aliases);
  EXPECT_EQ(decoded->node_lsh.num_tables, 12);
  EXPECT_TRUE(GraphsEqual(decoded->graph, snap.graph));
  EXPECT_EQ(EncodeSnapshot(*decoded), bytes);
}

TEST(SnapshotTest, ParallelEncodeMatchesSequential) {
  StoreSnapshot snap = MakeSnapshot();
  ThreadPool pool(4);
  EXPECT_EQ(EncodeSnapshot(snap, &pool), EncodeSnapshot(snap, nullptr));
}

TEST(SnapshotTest, CorruptedSectionIsDetectedByName) {
  std::string bytes = EncodeSnapshot(MakeSnapshot());
  bytes[bytes.size() / 2] ^= 0x01;  // lands inside the large graph section
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("CRC mismatch"),
            std::string::npos)
      << decoded.status();

  auto info = InspectSnapshot(bytes);
  ASSERT_TRUE(info.ok()) << info.status();
  bool some_bad = false, some_good = false;
  for (const auto& s : info->sections) {
    (s.crc_ok ? some_good : some_bad) = true;
  }
  EXPECT_TRUE(some_bad);
  EXPECT_TRUE(some_good);  // corruption is pinned to one section
}

/// MakeSnapshot plus a discovered schema and its aggregates, so the
/// cross-section checks have ids to check.
StoreSnapshot MakeSnapshotWithAggregates() {
  StoreSnapshot snap = MakeSnapshot();
  IncrementalDiscoverer engine(FastOptions().incremental);
  EXPECT_TRUE(engine.Feed(FullBatch(snap.graph)).ok());
  snap.schema = engine.schema();
  snap.aggregates = engine.aggregates();
  snap.has_aggregates = true;
  return snap;
}

/// Re-keys the first entry of a count map to `id`, keeping its count.
template <typename Map>
void RekeyFirst(Map* map, uint64_t id) {
  ASSERT_FALSE(map->empty());
  auto node = map->extract(map->begin());
  node.key() = static_cast<typename Map::key_type>(id);
  map->insert(std::move(node));
}

// Aggregates naming an interned id past the end of its symbol pool decode
// as a corrupt snapshot. `folded` is unchanged, so the aggregates still
// look consistent with the schema and recovery would otherwise accept them.
TEST(SnapshotTest, AggregateIdsOutsideTheSymbolPoolsAreCorrupt) {
  const StoreSnapshot base = MakeSnapshotWithAggregates();
  ASSERT_TRUE(DecodeSnapshot(EncodeSnapshot(base)).ok());
  const GraphSymbols& sym = base.graph.symbols();
  const std::vector<
      std::pair<std::string, std::function<void(SchemaAggregates*)>>>
      cases = {
          {"aggregate label-set",
           [&](SchemaAggregates* a) {
             RekeyFirst(&a->node_types[0].label_set_counts,
                        sym.label_sets.size());
           }},
          {"aggregate key-set",
           [&](SchemaAggregates* a) {
             RekeyFirst(&a->node_types[0].key_set_counts,
                        sym.key_sets.size() + 7);
           }},
          {"aggregate key",
           [&](SchemaAggregates* a) {
             RekeyFirst(&a->node_types[0].keys, sym.keys.size());
           }},
          {"aggregate source label-set",
           [&](SchemaAggregates* a) {
             RekeyFirst(&a->edge_types[0].src_set_counts,
                        sym.label_sets.size());
           }},
          {"aggregate target label-set",
           [&](SchemaAggregates* a) {
             RekeyFirst(&a->edge_types[0].tgt_set_counts,
                        sym.label_sets.size());
           }},
      };
  for (const auto& [what, tamper] : cases) {
    SCOPED_TRACE(what);
    StoreSnapshot snap = base;
    tamper(&snap.aggregates);
    ASSERT_TRUE(snap.aggregates.ConsistentWith(snap.schema));
    auto decoded = DecodeSnapshot(EncodeSnapshot(snap));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    EXPECT_NE(decoded.status().message().find(what + " id "),
              std::string::npos)
        << decoded.status();
  }
}

// A schema instance id past the graph's node/edge count decodes as a
// corrupt snapshot, even with `folded` bumped to keep the aggregates
// consistent with the schema.
TEST(SnapshotTest, SchemaInstanceIdsOutsideTheGraphAreCorrupt) {
  const StoreSnapshot base = MakeSnapshotWithAggregates();
  {
    StoreSnapshot snap = base;
    snap.schema.node_types[0].instances.push_back(snap.graph.num_nodes());
    ++snap.aggregates.node_types[0].folded;
    ASSERT_TRUE(snap.aggregates.ConsistentWith(snap.schema));
    auto decoded = DecodeSnapshot(EncodeSnapshot(snap));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    EXPECT_NE(decoded.status().message().find(
                  " node id " + std::to_string(snap.graph.num_nodes())),
              std::string::npos)
        << decoded.status();
  }
  {
    StoreSnapshot snap = base;
    snap.schema.edge_types[0].instances.push_back(snap.graph.num_edges() + 3);
    ++snap.aggregates.edge_types[0].folded;
    auto decoded = DecodeSnapshot(EncodeSnapshot(snap));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    EXPECT_NE(decoded.status().message().find(
                  " edge id " + std::to_string(snap.graph.num_edges() + 3)),
              std::string::npos)
        << decoded.status();
  }
}

/// `bytes` (an encoded snapshot without aggregates) with an aggregates
/// section holding `payload` appended, under valid CRCs.
std::string WithAggregatesSection(const std::string& bytes,
                                  const std::string& payload) {
  BinaryReader r(std::string_view(bytes).substr(8, 4));
  const uint32_t section_count = r.ReadU32().value();
  BinaryWriter w;
  w.WriteBytes(std::string_view(bytes).substr(0, 8));  // magic + version
  w.WriteU32(section_count + 1);
  w.WriteU32(Crc32(w.buffer()));
  w.WriteBytes(std::string_view(bytes).substr(16));
  w.WriteU32(static_cast<uint32_t>(SnapshotSection::kAggregates));
  w.WriteU64(payload.size());
  w.WriteU32(Crc32(payload));
  w.WriteBytes(payload);
  return std::move(w).Take();
}

/// A v5 aggregates payload with no node types and one edge type, written
/// field by field so that ids can repeat (the encoder's maps cannot hold a
/// repeated id). Each key-set entry counts 1; each out-degree endpoint has
/// one edge to node 0.
std::string OneEdgeTypeAggregates(const std::vector<uint32_t>& key_sets,
                                  const std::vector<uint64_t>& endpoints) {
  BinaryWriter w;
  w.WriteU32(0);                  // node types
  w.WriteU32(1);                  // edge types
  w.WriteU64(key_sets.size());    // folded
  w.WriteU32(static_cast<uint32_t>(key_sets.size()));
  for (uint32_t id : key_sets) {
    w.WriteU32(id);
    w.WriteU64(1);
  }
  for (int empty = 0; empty < 4; ++empty) {
    w.WriteU32(0);  // label-set counts, keys, source and target label sets
  }
  w.WriteU32(static_cast<uint32_t>(endpoints.size()));  // out-degree map
  for (uint64_t endpoint : endpoints) {
    w.WriteU64(endpoint);
    w.WriteU32(1);  // neighbours
    w.WriteU64(0);  // neighbour node 0...
    w.WriteU64(1);  // ...over one edge
  }
  w.WriteU32(0);  // in-degree map
  return std::move(w).Take();
}

/// Decodes `bytes` and expects a ParseError whose message contains `what`.
void ExpectCorrupt(const std::string& bytes, const std::string& what) {
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find(what), std::string::npos)
      << decoded.status();
}

// The writer erases an aggregate entry when its count reaches zero, so a
// zero count can only come from a damaged or hostile file. Retraction would
// otherwise carry it forward: a zero-count label set still joins the type's
// labels.
TEST(SnapshotTest, ZeroCountAggregateEntryIsCorrupt) {
  const StoreSnapshot base = MakeSnapshotWithAggregates();
  const std::vector<
      std::pair<std::string, std::function<void(SchemaAggregates*)>>>
      cases = {
          {"zero count in aggregate label-set",
           [](SchemaAggregates* a) {
             auto& counts = a->node_types[0].label_set_counts;
             counts[counts.rbegin()->first + 1] = 0;
           }},
          {"zero count in aggregate key",
           [](SchemaAggregates* a) {
             a->node_types[0].keys.begin()->second.present = 0;
           }},
          {"zero count in degree map neighbour",
           [](SchemaAggregates* a) {
             a->edge_types[0].out_counts.begin()->second.begin()->second = 0;
           }},
      };
  for (const auto& [what, tamper] : cases) {
    SCOPED_TRACE(what);
    StoreSnapshot snap = base;
    tamper(&snap.aggregates);
    ExpectCorrupt(EncodeSnapshot(snap), what);
  }
}

// The writer emits every aggregate map in ascending id order. A repeated
// key-set id would silently overwrite the first count; a repeated degree
// endpoint would merge into one map entry but count twice in the rebuilt
// degree histogram.
TEST(SnapshotTest, RepeatedAggregateIdsAreCorrupt) {
  const std::string bytes = EncodeSnapshot(MakeSnapshot());
  auto with = [&](const std::vector<uint32_t>& key_sets,
                  const std::vector<uint64_t>& endpoints) {
    return WithAggregatesSection(bytes,
                                 OneEdgeTypeAggregates(key_sets, endpoints));
  };
  ASSERT_TRUE(DecodeSnapshot(with({0, 1}, {3, 5})).ok());
  ExpectCorrupt(with({1, 1}, {}),
                "aggregate key-set ids not strictly increasing");
  ExpectCorrupt(with({1, 0}, {}),
                "aggregate key-set ids not strictly increasing");
  ExpectCorrupt(with({}, {5, 5}),
                "degree map endpoint ids not strictly increasing");
}

TEST(SnapshotTest, FileRoundTripAndTruncationRejection) {
  std::string dir = TestDir("snapfile");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/snap.pghs";
  std::string bytes = EncodeSnapshot(MakeSnapshot());
  ASSERT_TRUE(WriteSnapshotFile(path, bytes).ok());
  auto loaded = ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(EncodeSnapshot(*loaded), bytes);

  ASSERT_TRUE(WriteFile(path, bytes.substr(0, bytes.size() / 3)).ok());
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

// --- Journal. ---

TEST(JournalTest, AppendsAndReadsBack) {
  std::string dir = TestDir("journal");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/journal-0.wal";
  PropertyGraph g = MakeTestGraph();
  std::vector<BatchPayload> batches = MakeStreamBatches(g, 3);

  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path, /*fsync=*/false).ok());
  // Fresh segments carry the v3 header, so records use the v3 payload codec.
  EXPECT_EQ(writer.format_version(), kJournalFormatVersion);
  for (size_t i = 0; i < batches.size(); ++i) {
    BinaryWriter payload;
    EncodeBatchPayloadV3(batches[i], &payload);
    ASSERT_TRUE(writer.Append(i, payload.buffer()).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  auto read = ReadJournalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(read->records[i].batch_id, i);
    EXPECT_EQ(read->records[i].payload.nodes.size(), batches[i].nodes.size());
    EXPECT_EQ(read->records[i].payload.edges.size(), batches[i].edges.size());
  }
}

TEST(JournalTest, TornTailIsDetectedAndEarlierRecordsSurvive) {
  std::string dir = TestDir("torn");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/journal-0.wal";
  JournalWriter writer;
  ASSERT_TRUE(writer.Open(path, /*fsync=*/false).ok());
  BinaryWriter payload;
  EncodeBatchPayloadV3(BatchPayload{}, &payload);
  ASSERT_TRUE(writer.Append(0, payload.buffer()).ok());
  ASSERT_TRUE(writer.Append(1, payload.buffer()).ok());
  ASSERT_TRUE(writer.Close().ok());

  std::string full = ReadFile(path).value();
  const uint64_t full_size = full.size();
  // Cut the file anywhere inside the last record: the first record must
  // survive, the tail must be flagged, valid_bytes must point at the cut.
  for (size_t cut = 1; cut < 12; ++cut) {
    ASSERT_TRUE(WriteFile(path, full.substr(0, full.size() - cut)).ok());
    auto read = ReadJournalSegment(path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_TRUE(read->torn_tail) << cut;
    ASSERT_EQ(read->records.size(), 1u) << cut;
    EXPECT_EQ(read->records[0].batch_id, 0u);
    EXPECT_LT(read->valid_bytes, full_size - cut);
  }

  // A flipped byte inside the last record body is caught by the CRC.
  ASSERT_TRUE(WriteFile(path, full).ok());
  CorruptByteAt(path, 2);
  auto read = ReadJournalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->records.size(), 1u);
}

// --- Stream batching. ---

TEST(StreamBatchesTest, EndpointClosedAndCoversGraph) {
  PropertyGraph g = MakeTestGraph();
  for (size_t nb : {1u, 3u, 7u}) {
    std::vector<BatchPayload> batches = MakeStreamBatches(g, nb);
    size_t nodes_seen = 0, edges_seen = 0;
    for (const BatchPayload& b : batches) {
      nodes_seen += b.nodes.size();
      for (const EdgeData& e : b.edges) {
        // Both endpoints must already be delivered once this batch lands.
        EXPECT_LT(e.source, nodes_seen);
        EXPECT_LT(e.target, nodes_seen);
      }
      edges_seen += b.edges.size();
    }
    EXPECT_EQ(nodes_seen, g.num_nodes());
    EXPECT_EQ(edges_seen, g.num_edges());
  }
}

// --- Fingerprint. ---

TEST(FingerprintTest, SensitiveToOutputAffectingOptionsOnly) {
  IncrementalOptions a;
  IncrementalOptions b = a;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.pipeline.num_threads = 8;  // thread count never affects the output
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.pipeline.seed = 43;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = a;
  b.pipeline.extraction.jaccard_threshold = 0.8;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
}

// --- Durable discovery end to end. ---

/// Runs an uninterrupted durable discovery over `batches` and returns the
/// final schema as canonical JSON.
std::string UninterruptedRun(const std::string& dir,
                             const std::vector<BatchPayload>& batches) {
  RecoveryReport report;
  auto store = DurableDiscoverer::OpenOrRecover(dir, FastOptions(), &report);
  EXPECT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(report.fresh);
  for (const BatchPayload& b : batches) {
    EXPECT_TRUE((*store)->Feed(b).ok());
  }
  auto schema = (*store)->Finish();
  EXPECT_TRUE(schema.ok()) << schema.status();
  return SchemaToJson(*schema);
}

TEST(DurableDiscovererTest, MatchesUninterruptedRunAfterCrashAtEveryPoint) {
  PropertyGraph g = MakeTestGraph();
  const size_t kBatches = 6;
  std::vector<BatchPayload> batches = MakeStreamBatches(g, kBatches);
  ASSERT_EQ(batches.size(), kBatches);

  const std::string reference =
      UninterruptedRun(TestDir("reference"), batches);

  // Kill the process in the crash window (journal append done, apply not)
  // after every possible prefix and check recovery converges exactly.
  for (size_t cut = 0; cut < kBatches; ++cut) {
    std::string dir = TestDir("crash_" + std::to_string(cut));
    {
      auto store =
          DurableDiscoverer::OpenOrRecover(dir, FastOptions()).value();
      for (size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(store->Feed(batches[i]).ok());
      }
      ASSERT_TRUE(store->FeedJournalOnly(batches[cut]).ok());
      // The store object dies here — the batch exists only in the journal,
      // exactly like a process killed between append and apply.
    }
    RecoveryReport report;
    auto recovered =
        DurableDiscoverer::OpenOrRecover(dir, FastOptions(), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_FALSE(report.fresh);
    EXPECT_EQ((*recovered)->batches_applied(), cut + 1)
        << report.ToString();
    EXPECT_GE(report.replayed_batches, 1u) << report.ToString();
    for (size_t i = cut + 1; i < kBatches; ++i) {
      ASSERT_TRUE((*recovered)->Feed(batches[i]).ok());
    }
    auto schema = (*recovered)->Finish();
    ASSERT_TRUE(schema.ok()) << schema.status();
    EXPECT_EQ(SchemaToJson(*schema), reference) << "crash after batch "
                                                << cut;
  }
}

TEST(DurableDiscovererTest, TornJournalTailIsTruncatedAndRefed) {
  PropertyGraph g = MakeTestGraph();
  std::vector<BatchPayload> batches = MakeStreamBatches(g, 6);
  const std::string reference = UninterruptedRun(TestDir("ref2"), batches);

  std::string dir = TestDir("torn_tail");
  {
    StoreOptions opt = FastOptions();
    opt.checkpoint_every_batches = 0;  // keep everything in the journal
    auto store = DurableDiscoverer::OpenOrRecover(dir, opt).value();
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(store->Feed(batches[i]).ok());
    }
  }
  // Chop bytes off the newest segment: batch 3's record becomes torn.
  std::vector<std::string> journals = ListJournalFiles(dir);
  ASSERT_EQ(journals.size(), 1u);
  std::string bytes = ReadFile(journals[0]).value();
  ASSERT_TRUE(WriteFile(journals[0], bytes.substr(0, bytes.size() - 7)).ok());

  RecoveryReport report;
  auto recovered =
      DurableDiscoverer::OpenOrRecover(dir, FastOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(report.truncated_torn_tail);
  EXPECT_EQ((*recovered)->batches_applied(), 3u);  // batch 3 was discarded
  for (size_t i = 3; i < batches.size(); ++i) {
    ASSERT_TRUE((*recovered)->Feed(batches[i]).ok());
  }
  auto schema = (*recovered)->Finish();
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(SchemaToJson(*schema), reference);
}

TEST(DurableDiscovererTest, CorruptNewestSnapshotFallsBackToOlder) {
  PropertyGraph g = MakeTestGraph();
  std::vector<BatchPayload> batches = MakeStreamBatches(g, 6);
  const std::string reference = UninterruptedRun(TestDir("ref3"), batches);

  std::string dir = TestDir("bad_snap");
  {
    auto store = DurableDiscoverer::OpenOrRecover(dir, FastOptions()).value();
    for (const BatchPayload& b : batches) {
      ASSERT_TRUE(store->Feed(b).ok());
    }
    ASSERT_TRUE(store->Finish().ok());
  }
  std::vector<std::string> snapshots = ListSnapshotFiles(dir);
  ASSERT_GE(snapshots.size(), 2u);  // keep_extra_snapshots retains one
  CorruptByteAt(snapshots[0], 10);

  RecoveryReport report;
  auto recovered =
      DurableDiscoverer::OpenOrRecover(dir, FastOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(report.corrupt_snapshots.size(), 1u);
  EXPECT_EQ(report.snapshot_path, snapshots[1]);
  // The older snapshot is behind; re-feeding from its applied count
  // converges to the same schema.
  for (size_t i = (*recovered)->batches_applied(); i < batches.size(); ++i) {
    ASSERT_TRUE((*recovered)->Feed(batches[i]).ok());
  }
  auto schema = (*recovered)->Finish();
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(SchemaToJson(*schema), reference);
}

// A snapshot whose aggregates disagree with its schema (one `folded` count
// off by one) still recovers: RestoreState rebuilds the aggregates, so the
// next deletion batch retracts from a full state and Finish equals an
// untampered run's.
TEST(DurableDiscovererTest, InconsistentSnapshotAggregatesAreRebuilt) {
  PropertyGraph g = MakeTestGraph();
  const std::vector<BatchPayload> batches = MakeStreamBatches(g, 4);
  auto run = [&](const std::string& dir, bool tamper) {
    {
      auto store = DurableDiscoverer::OpenOrRecover(dir, FastOptions());
      EXPECT_TRUE(store.ok()) << store.status();
      for (const BatchPayload& b : batches) {
        EXPECT_TRUE((*store)->Feed(b).ok());
      }
      EXPECT_TRUE((*store)->Checkpoint().ok());
    }
    if (tamper) {
      const std::string path = ListSnapshotFiles(dir).front();
      StoreSnapshot snap = ReadSnapshotFile(path).value();
      EXPECT_TRUE(snap.has_aggregates);
      --snap.aggregates.node_types[0].folded;
      EXPECT_TRUE(WriteSnapshotFile(path, EncodeSnapshot(snap)).ok());
    }
    RecoveryReport report;
    auto store = DurableDiscoverer::OpenOrRecover(dir, FastOptions(), &report);
    EXPECT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE(report.corrupt_snapshots.empty()) << report.ToString();
    EXPECT_TRUE((*store)->engine().aggregates().ConsistentWith(
        (*store)->engine().schema()));
    // Delete node 0 with every edge incident to it.
    BatchPayload deletion;
    deletion.mutations.delete_nodes = {0};
    for (const auto& e : (*store)->graph().edges()) {
      if (e.source == 0 || e.target == 0) {
        deletion.mutations.delete_edges.push_back(e.id);
      }
    }
    EXPECT_TRUE((*store)->Feed(deletion).ok());
    auto schema = (*store)->Finish();
    EXPECT_TRUE(schema.ok()) << schema.status();
    return SchemaToJson(*schema);
  };
  EXPECT_EQ(run(TestDir("tampered"), true), run(TestDir("intact"), false));
}

// A zero-count {Person} entry planted in type Event's label-set counts, in
// an otherwise valid snapshot (CRCs recomputed). Accepted, it would give
// Event the label Person after the next deletion batch, although no Event
// instance carries it. Recovery reports the snapshot corrupt instead.
TEST(DurableDiscovererTest, ZeroCountAggregateEntryIsReportedCorrupt) {
  GenerateOptions gen;
  gen.num_nodes = 600;
  gen.num_edges = 1100;
  const PropertyGraph g =
      GenerateGraph(DatasetSpecByName("POLE").value(), gen).value();
  const std::string dir = TestDir("zero_count");
  StoreOptions opt = FastOptions();
  opt.checkpoint_every_batches = 4;
  {
    auto store = DurableDiscoverer::OpenOrRecover(dir, opt).value();
    for (const BatchPayload& b : MakeStreamBatches(g, 4)) {
      ASSERT_TRUE(store->Feed(b).ok());
    }
  }
  const std::vector<std::string> snapshots = ListSnapshotFiles(dir);
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_TRUE(ListJournalFiles(dir).empty());
  StoreSnapshot snap = ReadSnapshotFile(snapshots[0]).value();
  ASSERT_TRUE(snap.has_aggregates);
  const GraphSymbols& sym = snap.graph.symbols();
  LabelSetId person = 0;
  while (person < sym.label_sets.size() &&
         sym.label_sets.strings(person) != std::set<std::string>{"Person"}) {
    ++person;
  }
  ASSERT_LT(person, sym.label_sets.size());
  size_t event = 0;
  while (event < snap.schema.node_types.size() &&
         snap.schema.node_types[event].labels !=
             std::set<std::string>{"Event"}) {
    ++event;
  }
  ASSERT_LT(event, snap.schema.node_types.size());
  auto& counts = snap.aggregates.node_types[event].label_set_counts;
  ASSERT_EQ(counts.count(person), 0u);
  counts[person] = 0;
  ASSERT_TRUE(WriteSnapshotFile(snapshots[0], EncodeSnapshot(snap)).ok());

  RecoveryReport report;
  auto recovered = DurableDiscoverer::OpenOrRecover(dir, opt, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_EQ(report.corrupt_snapshots.size(), 1u) << report.ToString();
  EXPECT_NE(report.corrupt_snapshots[0].find(
                "zero count in aggregate label-set"),
            std::string::npos)
      << report.corrupt_snapshots[0];
  EXPECT_EQ((*recovered)->batches_applied(), 0u);
}

TEST(DurableDiscovererTest, CheckpointPolicyPrunesJournalAndSnapshots) {
  PropertyGraph g = MakeTestGraph();
  std::vector<BatchPayload> batches = MakeStreamBatches(g, 6);
  std::string dir = TestDir("policy");
  StoreOptions opt = FastOptions();
  opt.checkpoint_every_batches = 2;
  opt.keep_extra_snapshots = 0;
  auto store = DurableDiscoverer::OpenOrRecover(dir, opt).value();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store->Feed(batches[i]).ok());
  }
  // Two checkpoints fired; only the newest snapshot and no journal remain.
  EXPECT_EQ(ListSnapshotFiles(dir).size(), 1u);
  EXPECT_TRUE(ListJournalFiles(dir).empty());

  ASSERT_TRUE(store->Feed(batches[4]).ok());
  EXPECT_EQ(ListJournalFiles(dir).size(), 1u);  // one unapplied-side segment
}

TEST(DurableDiscovererTest, RefusesStateFromDifferentOptions) {
  PropertyGraph g = MakeTestGraph();
  std::vector<BatchPayload> batches = MakeStreamBatches(g, 3);
  std::string dir = TestDir("mismatch");
  {
    auto store = DurableDiscoverer::OpenOrRecover(dir, FastOptions()).value();
    for (const BatchPayload& b : batches) {
      ASSERT_TRUE(store->Feed(b).ok());
    }
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  StoreOptions other = FastOptions();
  other.incremental.pipeline.seed = 1;
  auto refused = DurableDiscoverer::OpenOrRecover(dir, other);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  other.allow_options_mismatch = true;
  EXPECT_TRUE(DurableDiscoverer::OpenOrRecover(dir, other).ok());

  // num_threads is not part of the fingerprint: resuming on a different
  // machine shape is always allowed.
  StoreOptions threads = FastOptions();
  threads.incremental.pipeline.num_threads = 4;
  EXPECT_TRUE(DurableDiscoverer::OpenOrRecover(dir, threads).ok());
}

}  // namespace
}  // namespace store
}  // namespace pghive
