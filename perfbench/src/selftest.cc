// Self-test of the benchmark's helpers: the percentile rule, the ratio
// helpers and the endpoint closure of the generated mutation stream.
// Prints one line per failed check and exits non-zero on any failure.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "drift/replay.h"
#include "mutation_stream.h"
#include "stats.h"
#include "store/state_store.h"

namespace pgbench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentiles() {
  Check(SamplesBeyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  Check(SamplesBeyond(199, 0.95) == 9, "199 samples leave 9 beyond p95");
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Check(SamplesBeyond(20, 0.5) == 10, "20 samples leave 10 beyond p50");
  Check(!TailPercentile(Ramp(199), 0.95).has_value(), "p95 of 199 refused");
  Check(TailPercentile(Ramp(200), 0.95) == 190.0, "p95 of 1..200 is 190");
  Check(TailPercentile(Ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Check(!TailPercentile(Ramp(999), 0.99).has_value(), "p99 of 999 refused");

  const Tail t200 = HighestTail(Ramp(200), 0.95);
  Check(Near(t200.q, 0.95) && t200.value == 190.0, "tail of 200 is p95");
  const Tail t40 = HighestTail(Ramp(40), 0.95);
  Check(Near(t40.q, 0.75) && t40.value == 30.0, "tail of 40 is p75");
  const Tail t5 = HighestTail(Ramp(5), 0.95);
  Check(Near(t5.q, 0.5) && t5.value == 3.0, "tail of 5 falls back to median");
  Check(HighestTail({}, 0.95).value == 0.0, "tail of nothing is 0");

  Check(Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  Check(Median({4.0, 1.0, 3.0, 2.0}) == 2.0, "median of four is lower middle");
  Check(Median({}) == 0.0, "median of nothing is 0");
}

void TestRatios() {
  Check(Ratio(1.0, 4.0) == 0.25, "ratio 1/4");
  Check(Ratio(5.0, 0.0) == 0.0, "ratio by zero is 0");
}

void TestMutationStream() {
  using namespace pghive;
  const DatasetSpec spec = DatasetSpecByName("IYP").value();
  GenerateOptions gen;
  gen.num_nodes = 1200;
  gen.num_edges = 6000;
  gen.seed = 7;
  const PropertyGraph g = GenerateGraph(spec, gen).value();
  const auto inserts = store::MakeStreamBatches(g, 32);
  const auto stream = AddMutations(inserts, 7);
  const auto again = AddMutations(inserts, 7);

  Check(CheckEndpointClosure(inserts).ok(), "insert stream is closed");
  const Status closed = CheckEndpointClosure(stream);
  Check(closed.ok(), "mutation stream is closed: " + closed.ToString());
  Check(drift::NetSurvivingStream(stream).ok(),
        "NetSurvivingStream accepts the stream");

  const StreamCounts c = CountStream(stream);
  Check(c.deleted_nodes > 0 && c.updated_nodes > 0 && c.deleted_edges > 0 &&
            c.updated_edges > 0,
        "stream deletes and updates nodes and edges");
  Check(stream.front().mutations.empty(), "first batch only inserts");
  const StreamCounts c2 = CountStream(again);
  Check(c.deleted_nodes == c2.deleted_nodes &&
            c.updated_edges == c2.updated_edges &&
            stream.back().edges.size() == again.back().edges.size(),
        "same seed, same stream");

  // Deleting a node while leaving an incident edge alive must be caught.
  auto broken = stream;
  for (size_t b = 1; b < broken.size(); ++b) {
    auto& m = broken[b].mutations;
    if (!m.delete_nodes.empty() && !m.delete_edges.empty()) {
      m.delete_edges.clear();
      break;
    }
  }
  Check(!CheckEndpointClosure(broken).ok(), "dangling edge detected");
}

}  // namespace
}  // namespace pgbench

int main() {
  pgbench::TestPercentiles();
  pgbench::TestRatios();
  pgbench::TestMutationStream();
  if (pgbench::failures == 0) std::printf("selftest: all checks passed\n");
  return pgbench::failures == 0 ? 0 : 1;
}
