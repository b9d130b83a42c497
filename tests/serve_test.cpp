// The schema-serving subsystem (src/serve/): HTTP framing, the JSON batch
// wire format, epoch-snapshot publication under concurrent readers (the
// TSan target), backpressure, the state-directory LOCK, graceful drain, and
// the end-to-end guarantee that a daemon-served schema is byte-identical to
// a one-shot durable run over the same batches.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/json.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "drift/drift_tracker.h"
#include "graph/mutations.h"
#include "serve/graph_host.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/state_store.h"
#include "test_dir.h"

namespace pghive {
namespace serve {
namespace {

PropertyGraph MakeTestGraph(size_t nodes = 240, size_t edges = 480) {
  auto spec = DatasetSpecByName("POLE").value();
  GenerateOptions gen;
  gen.num_nodes = nodes;
  gen.num_edges = edges;
  gen.seed = 99;
  return GenerateGraph(spec, gen).value();
}

store::StoreOptions FastStoreOptions() {
  store::StoreOptions opt;
  opt.incremental.pipeline.embedding.backend = EmbeddingBackend::kHash;
  opt.fsync = false;
  return opt;
}

GraphHostOptions FastHostOptions() {
  GraphHostOptions opt;
  opt.store = FastStoreOptions();
  return opt;
}

/// The post-processed schema JSON a sequential durable run shows after each
/// batch prefix — the golden set every served epoch must come from.
std::vector<std::string> GoldenEpochSchemas(
    const std::vector<store::BatchPayload>& payloads, const std::string& dir) {
  auto store =
      store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions()).value();
  std::vector<std::string> golden;
  golden.push_back(SchemaToJson(store->PostProcessedSchema()));  // epoch 0
  for (const auto& payload : payloads) {
    EXPECT_TRUE(store->Feed(payload).ok());
    golden.push_back(SchemaToJson(store->PostProcessedSchema()));
  }
  return golden;
}

// --- HTTP framing. ---

TEST(ServeHttpTest, SplitTargetDecodesQueries) {
  std::string path;
  std::map<std::string, std::string> query;
  SplitTarget("/v1/graphs/g/schema?epoch=3&name=a%20b+c", &path, &query);
  EXPECT_EQ(path, "/v1/graphs/g/schema");
  EXPECT_EQ(query["epoch"], "3");
  EXPECT_EQ(query["name"], "a b c");

  SplitTarget("/healthz", &path, &query);
  EXPECT_EQ(path, "/healthz");
  EXPECT_TRUE(query.empty());
}

TEST(ServeHttpTest, KeepAliveRoundTripOverLoopback) {
  uint16_t port = 0;
  auto listen_fd = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  ASSERT_GT(port, 0);

  Result<HttpRequest> first = Status::Internal("not read");
  Result<HttpRequest> second = Status::Internal("not read");
  std::thread server([&] {
    const int fd = ::accept(*listen_fd, nullptr, nullptr);
    HttpConnection conn(fd);
    first = conn.ReadRequest(1 << 20);
    if (!first.ok()) return;
    HttpResponse resp;
    resp.status = 200;
    resp.headers["content-type"] = "text/plain";
    resp.body = "pong";
    conn.WriteResponse(resp, /*close_connection=*/false);
    second = conn.ReadRequest(1 << 20);  // same connection, kept alive
    if (!second.ok()) return;
    resp.status = 202;
    resp.body = "done";
    conn.WriteResponse(resp, /*close_connection=*/true);
  });

  auto dial = DialTcp("127.0.0.1", port);
  ASSERT_TRUE(dial.ok()) << dial.status();
  HttpConnection client(*dial);
  ASSERT_TRUE(
      client.WriteRequest("GET", "/ping?x=1", "", "").ok());
  auto resp1 = client.ReadResponse(1 << 20);
  ASSERT_TRUE(resp1.ok()) << resp1.status();
  EXPECT_EQ(resp1->status, 200);
  EXPECT_EQ(resp1->body, "pong");
  EXPECT_EQ(resp1->headers["content-type"], "text/plain");

  ASSERT_TRUE(client.WriteRequest("POST", "/data", "{\"a\":1}",
                                  "application/json")
                  .ok());
  auto resp2 = client.ReadResponse(1 << 20);
  ASSERT_TRUE(resp2.ok()) << resp2.status();
  EXPECT_EQ(resp2->status, 202);
  EXPECT_EQ(resp2->body, "done");

  server.join();
  ::close(*listen_fd);

  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->method, "GET");
  EXPECT_EQ(first->path, "/ping");
  EXPECT_EQ(first->query.at("x"), "1");
  EXPECT_EQ(first->body, "");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->method, "POST");
  EXPECT_EQ(second->body, "{\"a\":1}");
  EXPECT_EQ(second->headers.at("content-type"), "application/json");
}

// --- JSON batch wire format. ---

TEST(ServeWireTest, TypedValuesRoundTripExactly) {
  const std::vector<Value> values = {
      Value::Int(-9007199254740993ll),  // beyond double's exact-int range
      Value::Double(0.1),
      Value::Double(1.0 / 3.0),
      Value::Bool(true),
      Value::Date("2024-02-29"),
      Value::Timestamp("2024-02-29T12:34:56Z"),
      Value::String("hello \"world\"\n"),
  };
  for (const Value& v : values) {
    const JsonValue j = ValueToJson(v);
    // Through a serialize/parse cycle, as over the wire.
    auto reparsed = ParseJson(j.Dump());
    ASSERT_TRUE(reparsed.ok());
    auto round = ValueFromJson(*reparsed);
    ASSERT_TRUE(round.ok()) << round.status();
    EXPECT_EQ(round->type(), v.type());
    EXPECT_EQ(round->ToText(), v.ToText());
  }
}

TEST(ServeWireTest, PlainJsonScalarsAreTyped) {
  auto parsed = ParseJson(
      R"({"i": 42, "d": 1.5, "b": false, "s": "plain", "n": null})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(ValueFromJson((*parsed)["i"])->type(), DataType::kInt);
  EXPECT_EQ(ValueFromJson((*parsed)["d"])->type(), DataType::kDouble);
  EXPECT_EQ(ValueFromJson((*parsed)["b"])->type(), DataType::kBool);
  EXPECT_EQ(ValueFromJson((*parsed)["s"])->type(), DataType::kString);
  EXPECT_FALSE(ValueFromJson(JsonValue(JsonArray{})).ok());
}

TEST(ServeWireTest, BatchRoundTripsThroughJson) {
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 3);
  for (const auto& payload : payloads) {
    const std::string wire = BatchToJson(payload).Dump();
    auto parsed = ParseJson(wire);
    ASSERT_TRUE(parsed.ok());
    auto decoded = BatchFromJson(*parsed);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->nodes.size(), payload.nodes.size());
    ASSERT_EQ(decoded->edges.size(), payload.edges.size());
    // Re-encoding must reproduce the exact wire bytes: the decoded batch is
    // semantically identical, element by element.
    EXPECT_EQ(BatchToJson(*decoded).Dump(), wire);
  }
}

TEST(ServeWireTest, MalformedBatchesAreRejected) {
  const auto bad = {
      std::string(R"([1,2,3])"),                         // not an object
      std::string(R"({"nodes": 5})"),                    // nodes not array
      std::string(R"({"nodes": [{"labels": "X"}]})"),    // labels not array
      std::string(R"({"edges": [{"source": 0}]})"),      // missing target
      std::string(R"({"edges": [{"source": -1, "target": 0}]})"),
  };
  for (const std::string& body : bad) {
    auto parsed = ParseJson(body);
    ASSERT_TRUE(parsed.ok()) << body;
    EXPECT_FALSE(BatchFromJson(*parsed).ok()) << body;
  }
}

// --- Epoch snapshots under concurrent readers (the TSan target). ---

TEST(ServeEpochTest, ConcurrentReadersOnlySeeBatchBoundarySchemas) {
  constexpr size_t kBatches = 32;
  constexpr int kReaders = 8;
  const PropertyGraph g = MakeTestGraph();
  const auto payloads = store::MakeStreamBatches(g, kBatches);
  ASSERT_EQ(payloads.size(), kBatches);
  const std::vector<std::string> golden =
      GoldenEpochSchemas(payloads, TestDir("epoch_golden"));

  GraphHostOptions options = FastHostOptions();
  options.retain_epochs = kBatches + 1;  // every epoch stays addressable
  auto host = GraphHost::Open("g", TestDir("epoch_host"), options);
  ASSERT_TRUE(host.ok()) << host.status();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> epoch_regressions{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const EpochSnapshot> snap = (*host)->Current();
        // Epochs are monotone per reader: a published pointer never goes
        // backwards.
        if (snap->epoch < last_epoch) epoch_regressions.fetch_add(1);
        last_epoch = snap->epoch;
        // Every observed schema is exactly the golden one of its epoch —
        // never a torn intermediate.
        if (snap->epoch >= golden.size() ||
            snap->schema_json != golden[snap->epoch]) {
          mismatches.fetch_add(1);
        }
        std::this_thread::yield();
      }
    });
  }

  // Feed while the readers hammer. The default queue (64) never fills for
  // 32 batches, so every submission is admitted.
  for (const auto& payload : payloads) {
    const auto submitted = (*host)->Submit(payload);
    ASSERT_EQ(submitted.admission, GraphHost::Admission::kAccepted);
  }
  while ((*host)->Current()->epoch < kBatches) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(epoch_regressions.load(), 0);
  EXPECT_EQ((*host)->Current()->epoch, kBatches);
  EXPECT_EQ((*host)->Current()->schema_json, golden[kBatches]);
  // Retained epochs resolve to their exact golden snapshot.
  for (uint64_t e = 0; e <= kBatches; ++e) {
    const auto snap = (*host)->AtEpoch(e);
    ASSERT_NE(snap, nullptr) << "epoch " << e;
    EXPECT_EQ(snap->schema_json, golden[e]);
  }
  EXPECT_TRUE((*host)->Drain().ok());
}

TEST(ServeEpochTest, RetentionEvictsOldEpochs) {
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 6);
  GraphHostOptions options = FastHostOptions();
  options.retain_epochs = 2;
  auto host = GraphHost::Open("g", TestDir("retention"), options);
  ASSERT_TRUE(host.ok()) << host.status();
  for (const auto& payload : payloads) {
    ASSERT_EQ((*host)->Submit(payload).admission,
              GraphHost::Admission::kAccepted);
  }
  ASSERT_TRUE((*host)->Drain().ok());
  EXPECT_EQ((*host)->Current()->epoch, 6u);
  EXPECT_NE((*host)->AtEpoch(6), nullptr);
  EXPECT_NE((*host)->AtEpoch(4), nullptr);
  EXPECT_EQ((*host)->AtEpoch(3), nullptr);  // evicted
  EXPECT_EQ((*host)->AtEpoch(0), nullptr);
}

// --- Backpressure. ---

TEST(ServeBackpressureTest, FullQueueRejectsUntilWriterCatchesUp) {
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 4);
  GraphHostOptions options = FastHostOptions();
  options.queue_capacity = 1;
  auto host = GraphHost::Open("g", TestDir("backpressure"), options);
  ASSERT_TRUE(host.ok()) << host.status();

  (*host)->PauseWriterForTest(true);
  EXPECT_EQ((*host)->Submit(payloads[0]).admission,
            GraphHost::Admission::kAccepted);
  const auto rejected = (*host)->Submit(payloads[1]);
  EXPECT_EQ(rejected.admission, GraphHost::Admission::kQueueFull);
  EXPECT_EQ(rejected.queue_depth, 1u);

  (*host)->PauseWriterForTest(false);
  // The writer drains; the rejected batch is eventually admitted on retry.
  for (;;) {
    const auto retried = (*host)->Submit(payloads[1]);
    if (retried.admission == GraphHost::Admission::kAccepted) break;
    ASSERT_EQ(retried.admission, GraphHost::Admission::kQueueFull);
    std::this_thread::yield();
  }
  ASSERT_TRUE((*host)->Drain().ok());
  EXPECT_EQ((*host)->Current()->epoch, 2u);
}

// --- Graceful drain. ---

TEST(ServeDrainTest, DrainAppliesBacklogAndCheckpoints) {
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 5);
  const std::string dir = TestDir("drain");
  {
    auto host = GraphHost::Open("g", dir, FastHostOptions());
    ASSERT_TRUE(host.ok()) << host.status();
    (*host)->PauseWriterForTest(true);  // force a real backlog
    for (const auto& payload : payloads) {
      ASSERT_EQ((*host)->Submit(payload).admission,
                GraphHost::Admission::kAccepted);
    }
    ASSERT_TRUE((*host)->Drain().ok());
    // Everything admitted was applied before the writer stopped...
    EXPECT_EQ((*host)->Current()->epoch, 5u);
    EXPECT_EQ((*host)->queue_depth(), 0u);
    // ...and a post-drain submission is refused, not silently dropped.
    EXPECT_EQ((*host)->Submit(payloads[0]).admission,
              GraphHost::Admission::kStopping);
  }
  // The drain checkpointed: restart recovers all 5 batches without replay.
  EXPECT_FALSE(store::ListSnapshotFiles(dir).empty());
  store::RecoveryReport report;
  auto store = store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions(),
                                                       &report);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->batches_applied(), 5u);
  EXPECT_EQ(report.replayed_batches, 0u);
}

// --- State-directory LOCK. ---

TEST(ServeLockTest, SecondOpenerIsRefusedWhileLockIsHeld) {
  const std::string dir = TestDir("lock");
  auto first = store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  ASSERT_TRUE(first.ok()) << first.status();
  auto second =
      store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(second.status().message().find("LOCK"), std::string::npos);

  // Releasing (destroying) the holder frees the directory.
  first = Status::Internal("released");
  auto third = store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  EXPECT_TRUE(third.ok()) << third.status();
}

TEST(ServeLockTest, StaleLockOfDeadProcessIsBroken) {
  const std::string dir = TestDir("stale_lock");
  std::filesystem::create_directories(dir);
  // No live process has this pid (pid_max is far below it).
  ASSERT_TRUE(WriteFile(dir + "/LOCK", "999999999\n").ok());
  auto opened = store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  EXPECT_TRUE(opened.ok()) << opened.status();
}

// A restarted daemon can get its dead predecessor's pid back (pid 1 in a
// container): a LOCK file naming our own pid, with no lock held on it, is
// free.
TEST(ServeLockTest, LockNamingOurOwnPidOpens) {
  const std::string dir = TestDir("own_pid_lock");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      WriteFile(dir + "/LOCK", std::to_string(::getpid()) + "\n").ok());
  auto opened = store::DurableDiscoverer::OpenOrRecover(dir, FastStoreOptions());
  EXPECT_TRUE(opened.ok()) << opened.status();
}

// --- End-to-end over loopback HTTP. ---

class ServeEndToEndTest : public ::testing::Test {
 protected:
  void StartServer(GraphHostOptions host_options) {
    ServeOptions options;
    options.port = 0;
    options.num_workers = 4;
    options.graph = std::move(host_options);
    server_ = std::make_unique<SchemaServer>(options);
    ASSERT_TRUE(server_->AddGraph("g", TestDir("e2e_state")).ok());
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
  }

  Result<HttpResponse> Get(const std::string& target) {
    return HttpCall("127.0.0.1", port_, "GET", target);
  }
  Result<HttpResponse> Post(const std::string& target,
                            const std::string& body) {
    return HttpCall("127.0.0.1", port_, "POST", target, body,
                    "application/json");
  }

  /// Variant with full ServeOptions control and a caller-owned state dir
  /// (NOT wiped — restart tests reuse it).
  void StartServerAt(ServeOptions options, const std::string& state_dir) {
    options.port = 0;
    server_ = std::make_unique<SchemaServer>(std::move(options));
    ASSERT_TRUE(server_->AddGraph("g", state_dir).ok());
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
  }

  std::unique_ptr<SchemaServer> server_;
  uint16_t port_ = 0;
};

TEST_F(ServeEndToEndTest, IngestedSchemaIsByteIdenticalToOneShot) {
  constexpr size_t kBatches = 6;
  const PropertyGraph g = MakeTestGraph();
  const auto payloads = store::MakeStreamBatches(g, kBatches);
  const std::vector<std::string> golden =
      GoldenEpochSchemas(payloads, TestDir("e2e_golden"));

  StartServer(FastHostOptions());

  auto health = Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);

  for (const auto& payload : payloads) {
    auto resp = Post("/v1/graphs/g/batches", BatchToJson(payload).Dump());
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->status, 202) << resp->body;
  }
  // Poll until the writer applied everything.
  for (;;) {
    auto detail = Get("/v1/graphs/g");
    ASSERT_TRUE(detail.ok()) << detail.status();
    ASSERT_EQ(detail->status, 200);
    auto doc = ParseJson(detail->body);
    ASSERT_TRUE(doc.ok());
    if (static_cast<size_t>(doc->GetInt("epoch").value()) == kBatches) break;
    std::this_thread::yield();
  }

  auto schema = Get("/v1/graphs/g/schema");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ(schema->status, 200);
  EXPECT_EQ(schema->headers["x-pghive-epoch"], std::to_string(kBatches));
  EXPECT_EQ(schema->body, golden[kBatches]);  // byte-identical

  // Historical epochs within retention serve their exact golden bytes.
  auto old_schema = Get("/v1/graphs/g/schema?epoch=5");
  ASSERT_TRUE(old_schema.ok());
  ASSERT_EQ(old_schema->status, 200);
  EXPECT_EQ(old_schema->body, golden[5]);

  auto list = Get("/v1/graphs");
  ASSERT_TRUE(list.ok());
  EXPECT_NE(list->body.find("\"name\":\"g\""), std::string::npos);

  auto metrics = Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("pghive.serve.batches_admitted"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("pghive.serve.epochs_published"),
            std::string::npos);

  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, ErrorPathsAnswerTheRightStatusCodes) {
  StartServer(FastHostOptions());

  auto unknown_graph = Get("/v1/graphs/nope/schema");
  ASSERT_TRUE(unknown_graph.ok());
  EXPECT_EQ(unknown_graph->status, 404);

  auto unknown_route = Get("/v2/everything");
  ASSERT_TRUE(unknown_route.ok());
  EXPECT_EQ(unknown_route->status, 404);

  auto wrong_method = Post("/v1/graphs", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto bad_json = Post("/v1/graphs/g/batches", "{not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);

  auto bad_batch = Post("/v1/graphs/g/batches", R"({"nodes": 7})");
  ASSERT_TRUE(bad_batch.ok());
  EXPECT_EQ(bad_batch->status, 400);

  auto bad_epoch = Get("/v1/graphs/g/schema?epoch=abc");
  ASSERT_TRUE(bad_epoch.ok());
  EXPECT_EQ(bad_epoch->status, 400);

  auto unretained_epoch = Get("/v1/graphs/g/schema?epoch=7");
  ASSERT_TRUE(unretained_epoch.ok());
  EXPECT_EQ(unretained_epoch->status, 404);

  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, FullQueueAnswers429WithRetryAfter) {
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 3);
  GraphHostOptions options = FastHostOptions();
  options.queue_capacity = 1;
  StartServer(std::move(options));
  server_->FindGraph("g")->PauseWriterForTest(true);

  auto first = Post("/v1/graphs/g/batches", BatchToJson(payloads[0]).Dump());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status, 202) << first->body;

  auto second = Post("/v1/graphs/g/batches", BatchToJson(payloads[1]).Dump());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 429);
  EXPECT_FALSE(second->headers["retry-after"].empty());

  server_->FindGraph("g")->PauseWriterForTest(false);
  // After the writer catches up the same batch is admitted.
  for (;;) {
    auto retried =
        Post("/v1/graphs/g/batches", BatchToJson(payloads[1]).Dump());
    ASSERT_TRUE(retried.ok());
    if (retried->status == 202) break;
    ASSERT_EQ(retried->status, 429);
    std::this_thread::yield();
  }
  EXPECT_TRUE(server_->Stop().ok());
}

// --- Schema drift over HTTP. ---

/// Three batches with inserts, deletions and an update: enough to retire a
/// type (Legacy) and produce a multi-epoch drift history.
std::vector<store::BatchPayload> MutationPayloads() {
  auto node = [](const std::string& label, const std::string& key,
                 const std::string& value) {
    NodeData n;
    n.labels = {label};
    n.properties[key] = Value::String(value);
    return n;
  };
  std::vector<store::BatchPayload> payloads(3);
  for (int i = 0; i < 4; ++i) {
    payloads[0].nodes.push_back(
        node("Person", "p_name", "p" + std::to_string(i)));
  }
  payloads[0].nodes.push_back(node("Legacy", "l_tag", "a"));
  payloads[0].nodes.push_back(node("Legacy", "l_tag", "b"));
  EdgeData knows;
  knows.source = 0;
  knows.target = 1;
  knows.labels = {"KNOWS"};
  payloads[0].edges.push_back(knows);

  payloads[1].mutations.delete_nodes = {4, 5};  // Legacy retires
  payloads[1].mutations.delete_edges = {0};
  NodeUpdate nu;
  nu.id = 0;
  nu.data = node("Person", "p_name", "p0b");
  payloads[1].mutations.update_nodes = {nu};

  payloads[2].nodes.push_back(node("Person", "p_name", "p9"));
  return payloads;
}

TEST(ServeWireTest, MutationBatchRoundTripsThroughJson) {
  const std::vector<store::BatchPayload> payloads = MutationPayloads();
  const store::BatchPayload& payload = payloads[1];
  auto round = BatchFromJson(BatchToJson(payload));
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->mutations.delete_nodes, payload.mutations.delete_nodes);
  EXPECT_EQ(round->mutations.delete_edges, payload.mutations.delete_edges);
  ASSERT_EQ(round->mutations.update_nodes.size(), 1u);
  EXPECT_EQ(round->mutations.update_nodes[0].id, 0u);
  EXPECT_EQ(round->mutations.update_nodes[0].data.properties.at("p_name"),
            Value::String("p0b"));

  // Curl-style plain JSON spelling.
  auto parsed = BatchFromJson(
      ParseJson(R"({"delete_nodes":[1,2],"update_edges":[
        {"id":0,"source":3,"target":4,"labels":["KNOWS"]}]})")
          .value());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->mutations.delete_nodes, (std::vector<NodeId>{1, 2}));
  ASSERT_EQ(parsed->mutations.update_edges.size(), 1u);
  EXPECT_EQ(parsed->mutations.update_edges[0].data.source, 3u);

  // Malformed mutation members are rejected.
  EXPECT_FALSE(
      BatchFromJson(ParseJson(R"({"delete_nodes":["x"]})").value()).ok());
  EXPECT_FALSE(
      BatchFromJson(ParseJson(R"({"delete_nodes":[-1]})").value()).ok());
  EXPECT_FALSE(
      BatchFromJson(ParseJson(R"({"update_nodes":[{"labels":["A"]}]})").value())
          .ok());
  EXPECT_FALSE(
      BatchFromJson(ParseJson(R"({"update_edges":[{"id":0}]})").value()).ok());
}

TEST_F(ServeEndToEndTest, DriftEndpointServesExactDiffSequence) {
  const std::vector<store::BatchPayload> payloads = MutationPayloads();

  // Golden: the drift JSON a sequential durable run over the same batches
  // produces.
  std::string golden_all;
  std::string golden_tail;
  {
    auto store = store::DurableDiscoverer::OpenOrRecover(
                     TestDir("drift_golden"), FastStoreOptions())
                     .value();
    for (const auto& payload : payloads) {
      ASSERT_TRUE(store->Feed(payload).ok());
    }
    golden_all = drift::DriftToJson(store->drift_tracker(), 0).Dump() + "\n";
    golden_tail = drift::DriftToJson(store->drift_tracker(), 1).Dump() + "\n";
  }

  StartServer(FastHostOptions());
  for (const auto& payload : payloads) {
    auto resp = Post("/v1/graphs/g/batches", BatchToJson(payload).Dump());
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->status, 202) << resp->body;
  }
  for (;;) {
    auto detail = Get("/v1/graphs/g");
    ASSERT_TRUE(detail.ok()) << detail.status();
    auto doc = ParseJson(detail->body);
    ASSERT_TRUE(doc.ok());
    if (static_cast<size_t>(doc->GetInt("epoch").value()) == payloads.size())
      break;
    std::this_thread::yield();
  }

  auto drift = Get("/v1/graphs/g/drift");
  ASSERT_TRUE(drift.ok()) << drift.status();
  ASSERT_EQ(drift->status, 200) << drift->body;
  EXPECT_EQ(drift->headers["x-pghive-epoch"], std::to_string(payloads.size()));
  EXPECT_EQ(drift->body, golden_all);  // exact per-epoch diff sequence

  auto tail = Get("/v1/graphs/g/drift?since=1");
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->status, 200);
  EXPECT_EQ(tail->body, golden_tail);

  auto bad = Get("/v1/graphs/g/drift?since=abc");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);

  auto wrong_method = Post("/v1/graphs/g/drift", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, DriftLongPollWakesWhenTheNextEpochPublishes) {
  const std::vector<store::BatchPayload> payloads = MutationPayloads();
  StartServer(FastHostOptions());

  Result<HttpResponse> polled = Status::Internal("not run");
  std::thread poller([&] {
    polled = HttpCall("127.0.0.1", port_, "GET",
                      "/v1/graphs/g/drift?since=0&wait=1");
  });
  auto resp = Post("/v1/graphs/g/batches", BatchToJson(payloads[0]).Dump());
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->status, 202);
  poller.join();

  ASSERT_TRUE(polled.ok()) << polled.status();
  ASSERT_EQ(polled->status, 200);
  EXPECT_GE(std::stoull(polled->headers["x-pghive-epoch"]), 1u);
  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, DriftEndpointAnswers404WhenTrackingIsOff) {
  GraphHostOptions options = FastHostOptions();
  options.store.track_drift = false;
  StartServer(std::move(options));
  auto resp = Get("/v1/graphs/g/drift");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 404);
  EXPECT_TRUE(server_->Stop().ok());
}

// --- Observability endpoints: readiness, metrics formats, tracing,
// --- access log, alerts. ---

TEST_F(ServeEndToEndTest, ReadyzReportsWriterAndQueueSaturation) {
  GraphHostOptions options = FastHostOptions();
  options.queue_capacity = 1;
  StartServer(std::move(options));

  auto ready = Get("/readyz");
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 200);
  auto doc = ParseJson(ready->body);
  ASSERT_TRUE(doc.ok()) << ready->body;
  EXPECT_EQ((*doc)["status"].AsString(), "ready");
  const auto& graphs = (*doc)["graphs"].AsArray();
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0]["name"].AsString(), "g");
  EXPECT_TRUE(graphs[0]["writer_ok"].AsBool());
  EXPECT_FALSE(graphs[0]["saturated"].AsBool());
  EXPECT_EQ(graphs[0]["queue_capacity"].AsInt(), 1);

  // A paused writer with a full queue turns readiness off (503) without
  // affecting liveness (/healthz stays 200).
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 2);
  server_->FindGraph("g")->PauseWriterForTest(true);
  auto admit = Post("/v1/graphs/g/batches", BatchToJson(payloads[0]).Dump());
  ASSERT_TRUE(admit.ok());
  ASSERT_EQ(admit->status, 202) << admit->body;

  auto saturated = Get("/readyz");
  ASSERT_TRUE(saturated.ok());
  EXPECT_EQ(saturated->status, 503) << saturated->body;
  auto sat_doc = ParseJson(saturated->body);
  ASSERT_TRUE(sat_doc.ok());
  EXPECT_EQ((*sat_doc)["status"].AsString(), "unready");
  auto health = Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);

  server_->FindGraph("g")->PauseWriterForTest(false);
  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, MetricsFormatsAndContentTypes) {
  StartServer(FastHostOptions());
  const PropertyGraph g = MakeTestGraph(60, 120);
  const auto payloads = store::MakeStreamBatches(g, 1);
  auto admit = Post("/v1/graphs/g/batches", BatchToJson(payloads[0]).Dump());
  ASSERT_TRUE(admit.ok());
  ASSERT_EQ(admit->status, 202) << admit->body;

  auto jsonl = Get("/metrics");
  ASSERT_TRUE(jsonl.ok()) << jsonl.status();
  ASSERT_EQ(jsonl->status, 200);
  EXPECT_EQ(jsonl->headers["content-type"],
            "application/x-ndjson; charset=utf-8");
  EXPECT_NE(jsonl->body.find("pghive.serve.batches_admitted"),
            std::string::npos);

  auto prom = Get("/metrics?format=prometheus");
  ASSERT_TRUE(prom.ok()) << prom.status();
  ASSERT_EQ(prom->status, 200);
  EXPECT_EQ(prom->headers["content-type"],
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(prom->body.find("# TYPE pghive_serve_batches_admitted_total "
                            "counter"),
            std::string::npos);
  // Exposition lines never carry the dotted spelling.
  EXPECT_EQ(prom->body.find("pghive.serve"), std::string::npos);

  auto bogus = Get("/metrics?format=xml");
  ASSERT_TRUE(bogus.ok());
  EXPECT_EQ(bogus->status, 400);

  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, TraceIdIsEchoedAndAccessLogRecordsRequests) {
  const std::string log_path =
      TestDir("access_log_dir") + "_access.jsonl";
  std::filesystem::remove(log_path);
  ServeOptions options;
  options.num_workers = 2;
  options.graph = FastHostOptions();
  options.access_log_path = log_path;
  StartServerAt(std::move(options), TestDir("access_state"));

  // An inbound x-pghive-trace-id is honored and echoed back.
  auto dial = DialTcp("127.0.0.1", port_);
  ASSERT_TRUE(dial.ok()) << dial.status();
  {
    HttpConnection conn(*dial);
    const std::string raw =
        "GET /healthz HTTP/1.1\r\n"
        "host: test\r\n"
        "x-pghive-trace-id: deadbeefcafe0123\r\n"
        "connection: close\r\n\r\n";
    ASSERT_EQ(::send(*dial, raw.data(), raw.size(), 0),
              static_cast<ssize_t>(raw.size()));
    auto echoed = conn.ReadResponse(1 << 20);
    ASSERT_TRUE(echoed.ok()) << echoed.status();
    EXPECT_EQ(echoed->status, 200);
    EXPECT_EQ(echoed->headers["x-pghive-trace-id"], "deadbeefcafe0123");
  }

  // Without an inbound id the server generates one (access log is active).
  auto generated = Get("/v1/graphs/g");
  ASSERT_TRUE(generated.ok()) << generated.status();
  EXPECT_EQ(generated->headers["x-pghive-trace-id"].size(), 16u);
  EXPECT_NE(generated->headers["x-pghive-trace-id"], "deadbeefcafe0123");

  EXPECT_TRUE(server_->Stop().ok());

  // The access log holds one JSONL record per request, carrying the ids.
  auto log = ReadFile(log_path);
  ASSERT_TRUE(log.ok()) << log.status();
  size_t lines = 0;
  bool saw_inbound_id = false;
  size_t pos = 0;
  while (pos < log->size()) {
    size_t end = log->find('\n', pos);
    if (end == std::string::npos) end = log->size();
    const std::string line = log->substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    ++lines;
    auto record = ParseJson(line);
    ASSERT_TRUE(record.ok()) << line;
    EXPECT_TRUE((*record)["method"].is_string()) << line;
    EXPECT_TRUE((*record)["path"].is_string()) << line;
    EXPECT_TRUE((*record)["status"].is_number()) << line;
    if ((*record)["trace"].is_string() &&
        (*record)["trace"].AsString() == "deadbeefcafe0123") {
      saw_inbound_id = true;
      EXPECT_EQ((*record)["path"].AsString(), "/healthz");
    }
  }
  EXPECT_GE(lines, 2u);
  EXPECT_TRUE(saw_inbound_id);
}

TEST_F(ServeEndToEndTest, AlertsFireOverHttpAndSurviveRestart) {
  const std::string state_dir = TestDir("alerts_state");
  const std::string rules_path = TestDir("alerts_rules_dir") + "_rules.txt";
  ASSERT_TRUE(WriteFile(rules_path,
                        "# serve alert smoke rules\n"
                        "alert legacy_gone drift type_retired type=Legacy* "
                        "resolve_after=8\n"
                        "alert never metric pghive.serve.queue_depth.g > "
                        "1000000\n")
                  .ok());

  GraphHostOptions host = FastHostOptions();
  host.alert_rules_path = rules_path;
  ServeOptions options;
  options.num_workers = 2;
  options.graph = host;
  StartServerAt(std::move(options), state_dir);

  // Before any drift: rules listed, nothing firing.
  auto quiet = Get("/v1/graphs/g/alerts");
  ASSERT_TRUE(quiet.ok()) << quiet.status();
  ASSERT_EQ(quiet->status, 200) << quiet->body;
  {
    auto doc = ParseJson(quiet->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ((*doc)["firing"].AsInt(), 0);
    EXPECT_EQ((*doc)["rules"].AsArray().size(), 2u);
  }

  // MutationPayloads retires the Legacy type at epoch 2.
  const std::vector<store::BatchPayload> payloads = MutationPayloads();
  for (const auto& payload : payloads) {
    auto resp = Post("/v1/graphs/g/batches", BatchToJson(payload).Dump());
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_EQ(resp->status, 202) << resp->body;
  }
  for (;;) {
    auto detail = Get("/v1/graphs/g");
    ASSERT_TRUE(detail.ok()) << detail.status();
    auto doc = ParseJson(detail->body);
    ASSERT_TRUE(doc.ok());
    if (static_cast<size_t>(doc->GetInt("epoch").value()) == payloads.size())
      break;
    std::this_thread::yield();
  }

  auto fired = Get("/v1/graphs/g/alerts");
  ASSERT_TRUE(fired.ok()) << fired.status();
  ASSERT_EQ(fired->status, 200);
  {
    auto doc = ParseJson(fired->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ((*doc)["firing"].AsInt(), 1) << fired->body;
    const auto& rules = (*doc)["rules"].AsArray();
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0]["name"].AsString(), "legacy_gone");
    EXPECT_TRUE(rules[0]["firing"].AsBool());
    EXPECT_EQ(rules[0]["fired_epoch"].AsInt(), 2);
    EXPECT_EQ(rules[0]["last_detail"].AsString(),
              "node type Legacy retired");
    EXPECT_FALSE(rules[1]["firing"].AsBool());
  }

  // The drift body now names the firing rules (long-pollers see them).
  auto drift = Get("/v1/graphs/g/drift");
  ASSERT_TRUE(drift.ok());
  ASSERT_EQ(drift->status, 200);
  {
    auto doc = ParseJson(drift->body);
    ASSERT_TRUE(doc.ok());
    const auto& firing = (*doc)["alerts_firing"].AsArray();
    ASSERT_EQ(firing.size(), 1u);
    EXPECT_EQ(firing[0].AsString(), "legacy_gone");
  }

  EXPECT_TRUE(server_->Stop().ok());
  EXPECT_TRUE(
      std::filesystem::exists(state_dir + "/alerts-state.json"));

  // Restart over the same state dir: the alert is still firing with its
  // original epoch and count — state survived the restart.
  ServeOptions again;
  again.num_workers = 2;
  again.graph = host;
  StartServerAt(std::move(again), state_dir);
  auto restored = Get("/v1/graphs/g/alerts");
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->status, 200);
  {
    auto doc = ParseJson(restored->body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ((*doc)["firing"].AsInt(), 1) << restored->body;
    const auto& rules = (*doc)["rules"].AsArray();
    EXPECT_TRUE(rules[0]["firing"].AsBool());
    EXPECT_EQ(rules[0]["fired_epoch"].AsInt(), 2);
    EXPECT_EQ(rules[0]["fire_count"].AsInt(), 1);
  }
  EXPECT_TRUE(server_->Stop().ok());
}

TEST_F(ServeEndToEndTest, AlertsEndpointAnswers404WithoutRules) {
  StartServer(FastHostOptions());
  auto resp = Get("/v1/graphs/g/alerts");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 404);
  EXPECT_TRUE(server_->Stop().ok());
}

}  // namespace
}  // namespace serve
}  // namespace pghive
