// Per-layer attribution of a traced operation.
//
// The benchmark wraps each public call it makes in an obs::ScopedSpan named
// `bench.<layer>.<call>`; the program's own spans (pipeline.*,
// incremental.*, store.*, serve.*, runtime.chunk) nest under them. After a
// traced operation, CollectOpTrace() drains the tracer and folds every span
// into per-name totals and per-layer self time: a span's duration minus the
// part its direct children cover. Spans recorded on worker threads are
// roots of their own threads, so with several threads the self times of
// all layers add up to more than the wall time.
//
// Layers are named after the modules: graph, core, cluster (lsh + cluster),
// runtime, store, drift, serve; "bench" is time inside the benchmark's own
// operation span that no layer span covers.

#ifndef PGBENCH_LAYERS_H_
#define PGBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace pgbench {

namespace obs = pghive::obs;

/// Name of the span each traced operation runs under.
inline constexpr char kOpSpan[] = "bench.op";

/// The layer a span belongs to, from its name.
std::string LayerOfSpan(std::string_view name);

/// What one traced operation recorded.
struct OpTrace {
  std::map<std::string, double> span_seconds;  // total duration per name
  std::map<std::string, uint64_t> span_count;
  std::map<std::string, double> self_seconds;  // per layer
  /// Duration of the kOpSpan span(s) and the part of it covered by direct
  /// child spans (what obs.coverage divides).
  double op_seconds = 0.0;
  double op_covered_seconds = 0.0;
  obs::MetricsSnapshot metrics;

  double Span(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  double Self(const std::string& layer) const;
  uint64_t Counter(const std::string& name) const;
  /// The named registry histogram (empty snapshot when absent).
  obs::HistogramSnapshot Histogram(const std::string& name) const;
};

/// Clears the tracer and the metrics registry, then switches tracing and
/// measurement-bearing metrics on or off for the next operation.
void BeginOp(bool traced);

/// Switches tracing off, drains every recorded span and snapshots the
/// registry. Call only when no other thread is inside an instrumented call.
OpTrace EndOp();

}  // namespace pgbench

#endif  // PGBENCH_LAYERS_H_
