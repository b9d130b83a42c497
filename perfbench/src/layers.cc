#include "layers.h"

#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace pgbench {

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

std::string LayerOfSpan(std::string_view name) {
  if (StartsWith(name, "bench.")) {
    name.remove_prefix(6);
    const size_t dot = name.find('.');
    if (dot == std::string_view::npos) return "bench";
    return std::string(name.substr(0, dot));
  }
  if (StartsWith(name, "pipeline.cluster_")) return "cluster";
  if (StartsWith(name, "pipeline.") || StartsWith(name, "incremental.")) {
    return "core";
  }
  for (const char* layer : {"runtime", "store", "serve", "drift", "graph"}) {
    if (StartsWith(name, layer) && name.size() > std::string_view(layer).size()
        && name[std::string_view(layer).size()] == '.') {
      return layer;
    }
  }
  return "other";
}

double OpTrace::Span(const std::string& name) const {
  auto it = span_seconds.find(name);
  return it == span_seconds.end() ? 0.0 : it->second;
}

uint64_t OpTrace::Count(const std::string& name) const {
  auto it = span_count.find(name);
  return it == span_count.end() ? 0 : it->second;
}

double OpTrace::Self(const std::string& layer) const {
  auto it = self_seconds.find(layer);
  return it == self_seconds.end() ? 0.0 : it->second;
}

uint64_t OpTrace::Counter(const std::string& name) const {
  for (const auto& [n, v] : metrics.counters) {
    if (n == name) return v;
  }
  return 0;
}

obs::HistogramSnapshot OpTrace::Histogram(const std::string& name) const {
  for (const auto& [n, h] : metrics.histograms) {
    if (n == name) return h;
  }
  return {};
}

void BeginOp(bool traced) {
  obs::Tracer::Global().SetEnabled(false);
  obs::Tracer::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetMetricsEnabled(traced);
  obs::Tracer::Global().SetEnabled(traced);
}

OpTrace EndOp() {
  obs::Tracer::Global().SetEnabled(false);
  obs::SetMetricsEnabled(false);
  OpTrace out;
  out.metrics = obs::MetricsRegistry::Global().Snapshot();
  const std::vector<obs::SpanEvent> spans =
      obs::Tracer::Global().CollectSpans();
  obs::Tracer::Global().Clear();

  std::unordered_map<uint64_t, double> child_seconds;
  for (const obs::SpanEvent& s : spans) {
    if (s.parent != 0) child_seconds[s.parent] += s.dur_ns * 1e-9;
  }
  for (const obs::SpanEvent& s : spans) {
    const double seconds = s.dur_ns * 1e-9;
    out.span_seconds[s.name] += seconds;
    ++out.span_count[s.name];
    const double self = seconds - child_seconds[s.id];
    out.self_seconds[LayerOfSpan(s.name)] += self > 0.0 ? self : 0.0;
    if (s.name == kOpSpan) {
      out.op_seconds += seconds;
      out.op_covered_seconds += child_seconds[s.id];
    }
  }
  return out;
}

}  // namespace pgbench
