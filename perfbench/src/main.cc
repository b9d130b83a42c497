// pgbench: the repository benchmark program. perfbench/run.py builds it
// and runs it as
//
//   pgbench --workload <oneshot_csv|durable_stream|serve_mutations>
//           --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// It prints one JSON line describing the run (environment, input sizes and
// the workload's own end-to-end figures under descriptive names), then, as
// the last line, the result object: {"correct","attempted","failed",
// "metrics"} with every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1). The exit code is non-zero when any correctness oracle
// failed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "simd/simd.h"
#include "workload.h"

#ifndef PGBENCH_BUILD_TYPE
#define PGBENCH_BUILD_TYPE "unknown"
#endif

namespace pgbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pgbench --workload <oneshot_csv|durable_stream|"
               "serve_mutations> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n");
  return 2;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string ResultLine(const RunResult& r, bool correct, bool trace) {
  const auto& names = trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = trace ? r.per_layer : r.end_to_end;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& [name, unit] = names[i];
    auto it = values.find(name);
    // A layer the workload does not exercise reports 0.
    const double value = it == values.end() ? 0.0 : it->second.value;
    if (it != values.end() && it->second.unit != unit) {
      std::fprintf(stderr, "pgbench: metric %s has unit %s, expected %s\n",
                   name.c_str(), it->second.unit.c_str(), unit.c_str());
      std::exit(1);
    }
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + FormatNumber(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage();
    }
  }
  if (config.workdir.empty() || !have_trace || config.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(config.workdir);

  RunResult r;
  if (config.workload == "oneshot_csv") {
    r = RunOneshotCsv(config);
  } else if (config.workload == "durable_stream") {
    r = RunDurableStream(config);
  } else if (config.workload == "serve_mutations") {
    r = RunServeMutations(config);
  } else {
    return Usage();
  }
  if (r.attempted == 0) {
    r.attempted = 1;
    r.Fail("no operation ran");
  }
  const double peak_rss_mb = PeakRssMb();
  r.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  if (!config.trace) {
    for (const auto& [name, unit] : EndToEndMetrics()) {
      if (r.end_to_end.count(name) == 0) {
        for (const std::string& e : r.errors) {
          std::fprintf(stderr, "pgbench: %s\n", e.c_str());
        }
        std::fprintf(stderr, "pgbench: metric %s missing\n", name.c_str());
        return 1;
      }
    }
  }

  pghive::JsonObject env;
  env["nproc"] = Nproc();
  env["simd"] = pghive::simd::ModeName();
  env["build_type"] = PGBENCH_BUILD_TYPE;
  env["fsync"] = r.fsync;
  env["threads"] = r.threads;
  r.report["setup_s"] = r.end_to_end["setup_s"];
  r.report["peak_rss_mb"] = {peak_rss_mb, "MB"};
  r.report["failed_ratio"] = {
      static_cast<double>(r.failed) / static_cast<double>(r.attempted),
      "ratio"};
  pghive::JsonObject report;
  for (const auto& [name, metric] : r.report) {
    report[name] = pghive::JsonObject{{"value", metric.value},
                                      {"unit", metric.unit}};
  }
  pghive::JsonArray errors;
  for (const std::string& e : r.errors) errors.emplace_back(e);
  pghive::JsonObject info;
  info["workload"] = config.workload;
  info["seed"] = static_cast<int64_t>(config.seed);
  info["trace"] = config.trace;
  info["env"] = std::move(env);
  info["inputs"] = r.inputs;
  info["report"] = std::move(report);
  info["errors"] = std::move(errors);
  std::printf("%s\n", pghive::JsonValue(std::move(info)).Dump().c_str());

  const bool correct = r.failed == 0;
  std::printf("%s\n", ResultLine(r, correct, config.trace).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pgbench

int main(int argc, char** argv) { return pgbench::Main(argc, argv); }
