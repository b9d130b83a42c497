// Shared shape of the three workloads: what a run is asked to do, what it
// reports, and the metric names the benchmark promises in BENCHMARK.json.

#ifndef PGBENCH_WORKLOAD_H_
#define PGBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "core/schema.h"
#include "drift/drift_tracker.h"

namespace pgbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout, removed after
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `end_to_end` holds the metrics every
/// workload reports; `per_layer` the traced run's layer metrics (names a
/// workload does not exercise are filled with 0 by main); `report` the
/// workload's own end-to-end figures under their descriptive names.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few oracle failures
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> report;
  pghive::JsonObject inputs;  // sizes of the generated inputs
  int threads = 1;            // discovery threads the workload runs with
  bool fsync = false;         // journal fsync policy of the workload

  void Fail(const std::string& error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
  }
};

/// Names and units of the end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// Names and units of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

RunResult RunOneshotCsv(const RunConfig& config);
RunResult RunDurableStream(const RunConfig& config);
RunResult RunServeMutations(const RunConfig& config);

struct OpTrace;

/// Median over traced operations of `f(trace)`.
double MedianOver(const std::vector<OpTrace>& traces,
                  const std::function<double(const OpTrace&)>& f);

/// Median over traced operations of the total seconds of span `name`.
double MedianSpan(const std::vector<OpTrace>& traces, const std::string& name);

/// Compact SchemaToJson of `schema` with instances: what the oracles compare.
std::string InstanceJson(const pghive::SchemaGraph& schema);

/// The per-layer metrics every workload derives the same way from its
/// traced operations: the program's pipeline.*, incremental.* and
/// runtime.chunk spans, self time per layer and obs.coverage.
void AddSpanMetrics(const std::vector<OpTrace>& traces,
                    std::map<std::string, Metric>* per_layer);

/// Drift events behind `c`: types and properties added or removed,
/// constraint, datatype and cardinality transitions.
uint64_t DriftEvents(const pghive::drift::DriftCounters& c);

/// Seconds on the steady clock since the first call.
double NowSeconds();

/// How many times a run repeats its set-up to time it.
inline constexpr int kSetupReps = 5;

/// Runs `setup` kSetupReps times and returns the median wall time (the
/// benchmark's setup_s); the last repetition's outputs are the ones used.
/// The host's speed swings by tens of percent from one second to the next,
/// and the median keeps one or two slow repetitions from moving setup_s.
double TimeSetup(const std::function<void()>& setup);

/// Runs operations until the next one would end past `seconds` (at least
/// `min_ops`). `op(i)` runs operation i and returns false to stop early.
void RunFor(double seconds, int min_ops, const std::function<bool(int)>& op);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// CPUs this process may run on (what `nproc` prints).
int Nproc();

/// Whole-file I/O for generated inputs; failures abort the run.
std::string ReadFileOrDie(const std::string& path);
void WriteFileOrDie(const std::string& path, const std::string& data);

/// Total size of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace pgbench

#endif  // PGBENCH_WORKLOAD_H_
