#!/usr/bin/env bash
# Tier-1 verification plus sanitizer passes: ThreadSanitizer over the
# execution runtime, ASan/UBSan over the durable state store.
#
#   tools/check.sh           # normal build + full ctest, then both legs
#   tools/check.sh --fast    # sanitizer legs only
#
# The TSan leg rebuilds runtime_test / pipeline_test / store_test /
# obs_test / the pghive CLI in build-tsan/ with -DPGHIVE_SANITIZE=thread and runs a
# --threads 4 discovery, so every parallelized stage (including the
# parallel snapshot encode) executes under the race detector.
#
# The ASan/UBSan leg rebuilds the store, csv (tokenizer + graph loader),
# parser, golden-equivalence and snapshot-compat tests in build-asan/ with
# -DPGHIVE_SANITIZE=address,undefined and drives a durable
# discover -> crash-free resume -> inspect-state cycle (the snapshots must
# be format version 5, without a value-stats section) and a
# discover --deletions run through the CLI, so
# the binary-format decoders run their corrupt-input paths under the memory
# and UB detectors and the interned-core refactor is re-verified against
# the pre-refactor golden schemas under ASan.
#
# The full run additionally re-records the micro_pipeline per-stage
# baseline and fails when 1-thread encode+cluster regresses more than 10%
# against the committed BENCH_pipeline.json, and gates the micro_drift
# mutation-batch series on last-4 <= 2x first-4 flatness (retractable
# aggregates must keep mutation batches O(batch)). The hot-path gate requires
# 1-thread encode+cluster to hold >= 1.5x over the pinned pre-SoA baseline
# (bench/BASELINE_pre_soa.json) on AVX2 hosts (warn-skip otherwise), and a
# scalar-vs-SIMD leg requires PGHIVE_SIMD=off and =on discoveries to emit
# byte-identical schema JSON for both LSH backends. The memory gate requires
# a post-processed IYP x4 discovery to peak at no more than 1.25x the RSS of
# the same run with --no-post, at 1 and 4 threads.
#
# The serve smoke runs the daemon with tracing + access log + alert rules:
# the served schema must stay byte-identical to the tracing-off one-shot,
# /metrics?format=prometheus must pass tools/prometheus_lint.py, and the
# SIGTERM drain must leave alert state, the access log and the request
# trace behind.
#
# The observability leg requires the direct children of a 1-thread one-shot
# IYP x4 discover's cli.discover root span to cover at least 90% of it,
# computed from the --metrics-out JSONL alone.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

if [[ "${1:-}" != "--fast" ]]; then
  echo "=== tier-1: normal build + ctest ==="
  cmake -B build -S .
  cmake --build build -j "${JOBS}"
  (cd build && ctest --output-on-failure -j "${JOBS}")

  echo "=== perf guard: encode+cluster vs committed BENCH_pipeline.json ==="
  # Re-record the per-stage baseline (benchmark loops filtered out) and
  # fail when the 1-thread encode+cluster total regresses more than 10%
  # against the committed trajectory file.
  if command -v python3 > /dev/null && [[ -x build/bench/micro_pipeline ]]; then
    perf_tmp="$(mktemp -d)"
    # Three recordings, compared by their minimum: single-shot wall-clock
    # timings on a loaded (or 1-vCPU) machine swing far more than the 10%
    # threshold, and the min over repeats is the standard estimator for
    # the noise-free cost.
    for i in 1 2 3; do
      PGHIVE_BENCH_OUT="${perf_tmp}/run${i}.json" \
        ./build/bench/micro_pipeline --benchmark_filter='^$' > /dev/null 2>&1
    done
    if grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null; then
      host_avx2=1
    else
      host_avx2=0
    fi
    PGHIVE_HOST_AVX2="${host_avx2}" python3 - BENCH_pipeline.json \
      bench/BASELINE_pre_soa.json \
      "${perf_tmp}/run1.json" "${perf_tmp}/run2.json" "${perf_tmp}/run3.json" \
      <<'PYEOF'
import json, os, sys

def load(path):
    with open(path) as f:
        return json.load(f)

def encode_cluster_1thread(doc):
    for run in doc["runs"]:
        if run["threads"] == 1:
            s = run["stages"]
            return (s["encode_nodes"] + s["cluster_nodes"] +
                    s["encode_edges"] + s["cluster_edges"])
    raise SystemExit("no 1-thread run in baseline")

fresh = [load(p) for p in sys.argv[3:]]
committed = encode_cluster_1thread(load(sys.argv[1]))
current = min(encode_cluster_1thread(d) for d in fresh)
print(f"encode+cluster 1-thread: committed {committed:.4f}s, "
      f"current {current:.4f}s")
if current > committed * 1.10:
    raise SystemExit(
        f"PERF REGRESSION: encode+cluster {current:.4f}s is more than 10% "
        f"slower than the committed baseline {committed:.4f}s "
        f"(BENCH_pipeline.json)")

# Hot-path speedup gate: the SoA/SIMD/union-find pass must hold its win
# against the pinned pre-pass baseline (bench/BASELINE_pre_soa.json, the
# BENCH_pipeline.json recorded just before the pass landed on comparable
# hardware). The SIMD flavours only dispatch on AVX2 hosts, so without
# AVX2 the gate is skipped with a warning rather than failed.
pre_soa = encode_cluster_1thread(load(sys.argv[2]))
if os.environ.get("PGHIVE_HOST_AVX2") != "1":
    print(f"hot-path speedup: pre-SoA {pre_soa:.4f}s, current {current:.4f}s "
          f"— WARNING: host lacks AVX2, 1.5x gate skipped")
else:
    speedup = pre_soa / current if current > 0 else 0.0
    print(f"hot-path speedup: pre-SoA {pre_soa:.4f}s, current {current:.4f}s, "
          f"speedup {speedup:.2f}x")
    if speedup < 1.5:
        raise SystemExit(
            f"HOT-PATH REGRESSION: encode+cluster is only {speedup:.2f}x "
            f"faster than the pre-SoA baseline (requires >= 1.5x on AVX2 "
            f"hosts; bench/BASELINE_pre_soa.json)")

# Quadratic-growth gate over the delta-maintained incremental series: with
# O(batch) aggregate folds, per-batch post-processing cost must stay flat
# as the stream accumulates. Compare the mean of the last 4 batches against
# the first 4 on the elementwise-min series (noise is additive, so the min
# over repeats estimates the true per-batch cost); a rescan-per-batch
# implementation grows linearly in every repeat and trips this immediately.
# The 2 ms floor keeps scheduler noise on near-zero timings from flaking
# the gate.
incs = [d.get("incremental") for d in fresh]
if any(i is None for i in incs):
    raise SystemExit("no 'incremental' section in the fresh baseline; "
                     "bench/micro_pipeline is out of date")
series = [i["post_seconds_delta"] for i in incs]
if min(len(s) for s in series) < 8:
    raise SystemExit("incremental series too short")
delta = [min(vals) for vals in zip(*series)]
head = sum(delta[:4]) / 4
tail = sum(delta[-4:]) / 4
floor = 0.002
print(f"incremental post-process ({len(delta)} batches): "
      f"first-4 mean {head * 1e3:.3f} ms, last-4 mean {tail * 1e3:.3f} ms")
if tail > max(head, floor) * 2.0:
    raise SystemExit(
        f"QUADRATIC GROWTH: per-batch post-processing rose from "
        f"{head * 1e3:.3f} ms to {tail * 1e3:.3f} ms across the stream — "
        f"delta maintenance is no longer O(batch)")

print("perf guard ok")
PYEOF
    rm -rf "${perf_tmp}"
  else
    echo "skipping perf guard (python3 or build/bench/micro_pipeline missing)"
  fi

  echo "=== perf guard: mutation-batch cost flatness (bench/micro_drift) ==="
  # Same elementwise-min idiom over the 32-batch steady mutation stream:
  # with retractable aggregates every batch retires as much as it inserts,
  # so per-batch cost must stay flat. A rebuild-per-retraction regression
  # grows with the accumulated graph and trips the 2x gate.
  if command -v python3 > /dev/null && [[ -x build/bench/micro_drift ]]; then
    drift_tmp="$(mktemp -d)"
    for i in 1 2 3; do
      PGHIVE_BENCH_OUT="${drift_tmp}/run${i}.json" \
        ./build/bench/micro_drift --benchmark_filter='^$' > /dev/null 2>&1
    done
    python3 - "${drift_tmp}/run1.json" "${drift_tmp}/run2.json" \
      "${drift_tmp}/run3.json" <<'PYEOF'
import json, sys

series = []
rescans = []
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    series.append(doc["batch_seconds"])
    rescans.append(doc["rescan_seconds"])
if min(len(s) for s in series) < 8:
    raise SystemExit("mutation-batch series too short")
batch = [min(vals) for vals in zip(*series)]
head = sum(batch[:4]) / 4
tail = sum(batch[-4:]) / 4
floor = 0.002
print(f"mutation batches ({len(batch)}): first-4 mean {head * 1e3:.3f} ms, "
      f"last-4 mean {tail * 1e3:.3f} ms, "
      f"rescan alternative {min(rescans) * 1e3:.3f} ms")
if tail > max(head, floor) * 2.0:
    raise SystemExit(
        f"RETRACTION GROWTH: per-batch mutation cost rose from "
        f"{head * 1e3:.3f} ms to {tail * 1e3:.3f} ms across the steady "
        f"stream — retractable aggregates are no longer O(batch)")
print("drift flatness ok")
PYEOF
    rm -rf "${drift_tmp}"
  else
    echo "skipping drift flatness gate (python3 or build/bench/micro_drift missing)"
  fi

  echo "=== memory gate: post-processing peak RSS vs --no-post (IYP x4) ==="
  # Post-processing folds one aggregate state over the discovered types and
  # must not cost a second graph's worth of memory: the peak RSS of a
  # post-processed discovery must stay within 1.25x of the same run with
  # --no-post. os.wait4 reads each child's own peak.
  mem_tmp="$(mktemp -d)"
  trap 'rm -rf "${mem_tmp}"' EXIT  # the IYP x4 CSVs, also when the gate fails
  ./build/apps/pghive generate IYP "${mem_tmp}/iyp4" \
    --nodes 48000 --edges 240000 > /dev/null
  python3 - ./build/apps/pghive "${mem_tmp}/iyp4" <<'PYEOF'
import os, sys

exe, prefix = sys.argv[1:3]

def peak_rss_mb(flags):
    argv = [exe, "discover", prefix, "--format", "json"] + flags
    pid = os.posix_spawn(exe, argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv)} failed")
    return usage.ru_maxrss / 1024.0  # KiB on Linux

worst = 0.0
for threads in ("1", "4"):
    post = peak_rss_mb(["--threads", threads])
    no_post = peak_rss_mb(["--threads", threads, "--no-post"])
    ratio = post / no_post
    worst = max(worst, ratio)
    print(f"peak RSS at {threads} thread(s): {post:.0f} MB post-processed, "
          f"{no_post:.0f} MB --no-post, ratio {ratio:.2f}x")
if worst > 1.25:
    raise SystemExit(
        f"MEMORY REGRESSION: post-processing raises peak RSS {worst:.2f}x "
        f"over --no-post (limit 1.25x)")
print("memory gate ok")
PYEOF
  rm -rf "${mem_tmp}"
  trap - EXIT

  echo "=== scalar-vs-SIMD byte-identity: PGHIVE_SIMD=off vs on ==="
  # The kernel flavours promise bit-identical output (simd/kernels.h): a
  # full discovery with the SIMD dispatch disabled must produce the same
  # schema JSON, byte for byte, as the enabled run — for both LSH backends.
  # On hosts without AVX2 both runs take the scalar path, which still
  # exercises the env-var dispatch; note it but run the comparison anyway.
  if ! grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null; then
    echo "note: host lacks AVX2 — both legs run the scalar flavour"
  fi
  simd_tmp="$(mktemp -d)"
  ./build/apps/pghive generate IYP "${simd_tmp}/iyp"
  for method in elsh minhash; do
    PGHIVE_SIMD=off ./build/apps/pghive discover "${simd_tmp}/iyp" \
      --method "${method}" \
      --save-schema "${simd_tmp}/${method}-scalar.json" > /dev/null
    PGHIVE_SIMD=on ./build/apps/pghive discover "${simd_tmp}/iyp" \
      --method "${method}" \
      --save-schema "${simd_tmp}/${method}-simd.json" > /dev/null
    cmp "${simd_tmp}/${method}-scalar.json" "${simd_tmp}/${method}-simd.json"
    echo "simd byte-identity ok (${method})"
  done
  rm -rf "${simd_tmp}"
fi

echo "=== TSan: runtime + pipeline + store + serve tests, 4-thread discovery ==="
cmake -B build-tsan -S . -DPGHIVE_SANITIZE=thread \
  -DPGHIVE_BUILD_BENCHMARKS=OFF -DPGHIVE_BUILD_EXAMPLES=OFF \
  -DPGHIVE_BUILD_TOOLS=OFF
cmake --build build-tsan -j "${JOBS}" \
  --target runtime_test pipeline_test store_test obs_test serve_test \
  drift_equivalence_test pghive_app
(cd build-tsan && ctest --output-on-failure -j "${JOBS}" \
  -R 'ThreadPool|Parallel|Pipeline|Snapshot|Journal|Durable|Obs|Serve|Drift')
# Drift equivalence under TSan at the widest thread count the suite
# carries (8 threads): parallel encode/hash on the pool around the
# calling-thread retraction and delta fold, race-checked in one pass.
(cd build-tsan && ctest --output-on-failure -j "${JOBS}" \
  -R 'DriftEquivalenceTest.*_t8')

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
./build-tsan/apps/pghive generate POLE "${tmpdir}/pole" --nodes 2000
./build-tsan/apps/pghive discover "${tmpdir}/pole" --threads 4 > /dev/null
./build-tsan/apps/pghive discover "${tmpdir}/pole" --threads 4 \
  --method minhash --sample-datatypes > /dev/null
./build-tsan/apps/pghive discover "${tmpdir}/pole" --threads 4 \
  --incremental 5 --state-dir "${tmpdir}/state-tsan" > /dev/null

echo "=== ASan/UBSan: store + csv + parser tests, durable CLI cycle ==="
cmake -B build-asan -S . -DPGHIVE_SANITIZE=address,undefined \
  -DPGHIVE_BUILD_BENCHMARKS=OFF -DPGHIVE_BUILD_EXAMPLES=OFF \
  -DPGHIVE_BUILD_TOOLS=OFF
cmake --build build-asan -j "${JOBS}" \
  --target store_test common_test csv_io_test pgschema_parser_test \
  golden_equivalence_test store_compat_test drift_test \
  drift_equivalence_test lsh_test cluster_test pghive_app
# SimdKernel / EuclideanLsh / MinHash / LshClusterer cover the SoA + SIMD
# hot-path kernels (aligned loads, padded-lane reads, the AVX2 intrinsics
# paths) under ASan/UBSan alongside the store decoders; Csv covers the CSV
# cursor (CsvTest) and the streaming graph loader with its seeded mutation
# test (CsvIoTest).
(cd build-asan && ctest --output-on-failure -j "${JOBS}" \
  -R 'BinaryIo|Codec|Snapshot|Journal|StreamBatches|Fingerprint|Durable|Csv|PgSchemaParser|GoldenEquivalence|StoreCompat|Drift|Mutation|Evolution|NetSurviving|SimdKernel|EuclideanLsh|MinHash|LshClusterer')

./build-asan/apps/pghive generate POLE "${tmpdir}/pole2" --nodes 1000
./build-asan/apps/pghive discover "${tmpdir}/pole2" --incremental 4 \
  --state-dir "${tmpdir}/state" --checkpoint-every 2 > /dev/null
./build-asan/apps/pghive resume "${tmpdir}/pole2" --incremental 4 \
  --state-dir "${tmpdir}/state" > /dev/null
./build-asan/apps/pghive inspect-state "${tmpdir}/state" \
  > "${tmpdir}/inspect.txt"
# Checkpoints write PGHS v5: no value-stats section.
grep -q 'format version 5,' "${tmpdir}/inspect.txt"
if grep -q 'section value-stats' "${tmpdir}/inspect.txt"; then
  echo "inspect-state shows a value-stats section in a v5 snapshot"
  exit 1
fi
# discover --deletions retracts through FeedMutations: a closed deletion
# file (every 7th node with all of its incident edges, plus every 11th
# edge), applied after a one-batch and a 4-batch discovery.
python3 - "${tmpdir}/pole2.nodes.csv" "${tmpdir}/pole2.edges.csv" \
  > "${tmpdir}/deletions.txt" <<'PYEOF'
import csv, sys

with open(sys.argv[1], newline="") as f:
    num_nodes = sum(1 for _ in csv.reader(f)) - 1
dead = set(range(0, num_nodes, 7))
print("# every 7th node, its incident edges, and every 11th edge")
for n in sorted(dead):
    print(f"node {n}")
with open(sys.argv[2], newline="") as f:
    rows = csv.reader(f)
    next(rows)
    for i, row in enumerate(rows):
        if i % 11 == 0 or int(row[0]) in dead or int(row[1]) in dead:
            print(f"edge {i}")
PYEOF
for batches in 1 4; do
  ./build-asan/apps/pghive discover "${tmpdir}/pole2" \
    --incremental "${batches}" --deletions "${tmpdir}/deletions.txt" \
    --format json > "${tmpdir}/deletions-${batches}.out"
  grep -q '^deletions: removed ' "${tmpdir}/deletions-${batches}.out"
done

echo "=== serve smoke: daemon schema byte-identical to one-shot discover ==="
# Start the daemon (under ASan) on an ephemeral port — with request tracing
# ON (--trace-out), an access log, and drift alert rules — HTTP-ingest the
# same endpoint-closed batch stream `discover --incremental 6` feeds, and
# require the served schema JSON to equal the one-shot (tracing-off)
# output byte for byte: tracing must never perturb discovery. Then scrape
# /metrics?format=prometheus and validate the exposition with
# tools/prometheus_lint.py, check /readyz and /v1/graphs/smoke/alerts,
# prove the LOCK (exit 4 for a second opener of a live directory)
# and a clean SIGTERM drain (exit 0, checkpoint + persisted alert state +
# access log on disk).
./build-asan/apps/pghive generate POLE "${tmpdir}/pole3" --nodes 1500
cat > "${tmpdir}/alert-rules.txt" <<'RULES'
# insert-only smoke stream: types and properties only ever appear
alert smoke_new_type drift type_added resolve_after=1000000
alert smoke_new_prop drift added_property resolve_after=1000000
RULES
./build-asan/apps/pghive serve smoke="${tmpdir}/serve-state" --port 0 \
  --port-file "${tmpdir}/port.txt" \
  --alert-rules "${tmpdir}/alert-rules.txt" \
  --access-log "${tmpdir}/access.jsonl" \
  --trace-out "${tmpdir}/serve-trace.json" > "${tmpdir}/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [[ -s "${tmpdir}/port.txt" ]] && break
  sleep 0.1
done
[[ -s "${tmpdir}/port.txt" ]] || {
  echo "serve daemon never wrote its port file"; cat "${tmpdir}/serve.log"
  exit 1
}
./build-asan/apps/pghive ingest "${tmpdir}/pole3" --graph smoke \
  --port-file "${tmpdir}/port.txt" --incremental 6 \
  --schema-out "${tmpdir}/served.json" > /dev/null
./build-asan/apps/pghive discover "${tmpdir}/pole3" --incremental 6 \
  --state-dir "${tmpdir}/oneshot-state" \
  --save-schema "${tmpdir}/oneshot.json" > /dev/null
cmp "${tmpdir}/served.json" "${tmpdir}/oneshot.json"
# The drift endpoint on the live daemon: the ingested epochs must have
# produced a non-empty versioned history, and ?since=<last epoch> must
# filter it down to nothing.
if command -v python3 > /dev/null; then
  python3 - "$(cat "${tmpdir}/port.txt")" <<'PYEOF'
import json, sys, urllib.request

port = sys.argv[1]
url = f"http://127.0.0.1:{port}/v1/graphs/smoke/drift"
with urllib.request.urlopen(url, timeout=10) as resp:
    assert resp.status == 200, resp.status
    epoch_hdr = resp.headers.get("x-pghive-epoch")
    doc = json.loads(resp.read().decode())
assert epoch_hdr is not None and int(epoch_hdr) >= 1, epoch_hdr
assert doc["epoch"] >= 1, doc
assert doc["counters"]["epochs_observed"] >= 1, doc
assert isinstance(doc["history"], list) and doc["history"], doc
with urllib.request.urlopen(f"{url}?since={doc['epoch']}", timeout=10) as r:
    tail = json.loads(r.read().decode())
assert tail["history"] == [], tail
print(f"drift endpoint ok: epoch {doc['epoch']}, "
      f"{len(doc['history'])} recorded diffs")
PYEOF
  # Prometheus exposition + readiness + alert state on the live daemon.
  python3 - "$(cat "${tmpdir}/port.txt")" "${tmpdir}/prom.txt" <<'PYEOF'
import json, sys, urllib.request

port, prom_path = sys.argv[1], sys.argv[2]
base = f"http://127.0.0.1:{port}"

with urllib.request.urlopen(f"{base}/metrics?format=prometheus",
                            timeout=10) as resp:
    assert resp.status == 200, resp.status
    ctype = resp.headers.get("content-type", "")
    assert ctype.startswith("text/plain; version=0.0.4"), ctype
    text = resp.read().decode()
with open(prom_path, "w") as f:
    f.write(text)

with urllib.request.urlopen(f"{base}/readyz", timeout=10) as resp:
    assert resp.status == 200, resp.status
    ready = json.loads(resp.read().decode())
assert ready["status"] == "ready", ready

with urllib.request.urlopen(f"{base}/v1/graphs/smoke/alerts",
                            timeout=10) as resp:
    assert resp.status == 200, resp.status
    alerts = json.loads(resp.read().decode())
# The insert-only stream certainly added types (epoch 1 diffs against an
# empty baseline); added_property depends on the generated batch slicing.
assert alerts["firing"] >= 1, alerts
names = {r["name"] for r in alerts["rules"] if r["firing"]}
assert "smoke_new_type" in names, names
print(f"readyz + alerts ok: {sorted(names)} firing")
PYEOF
  python3 tools/prometheus_lint.py "${tmpdir}/prom.txt" \
    --require pghive_serve_batches_admitted_total \
    --require pghive_alerts_firing_smoke \
    --require pghive_serve_route_seconds_batches_count
fi
set +e
./build-asan/apps/pghive discover "${tmpdir}/pole3" --incremental 6 \
  --state-dir "${tmpdir}/serve-state" > /dev/null 2>&1
lock_rc=$?
set -e
if [[ "${lock_rc}" -ne 4 ]]; then
  echo "expected exit 4 opening the live daemon's state dir, got ${lock_rc}"
  exit 1
fi
kill -TERM "${serve_pid}"
wait "${serve_pid}"  # non-zero (under set -e) = drain/checkpoint failed
./build-asan/apps/pghive inspect-state "${tmpdir}/serve-state" > /dev/null
./build-asan/apps/pghive drift "${tmpdir}/serve-state" > /dev/null
# The drain left the observability artifacts behind: persisted alert state
# (still firing — resolve_after is huge), a non-empty JSONL access log
# covering the ingest requests, and the request-span Chrome trace.
grep -q '"smoke_new_type"' "${tmpdir}/serve-state/alerts-state.json"
grep -q '"firing":true' "${tmpdir}/serve-state/alerts-state.json"
grep -q '"method":"POST"' "${tmpdir}/access.jsonl"
grep -q '"trace"' "${tmpdir}/access.jsonl"
grep -q '"serve.request"' "${tmpdir}/serve-trace.json"
grep -q '"serve.apply"' "${tmpdir}/serve-trace.json"
echo "serve smoke ok"

echo "=== observability: metrics + trace export sanity ==="
./build-asan/apps/pghive discover "${tmpdir}/pole2" --incremental 4 \
  --threads 2 --progress \
  --metrics-out "${tmpdir}/metrics.jsonl" \
  --trace-out "${tmpdir}/trace.json" > /dev/null
# A durable run: every store.checkpoint splits into build, encode, write
# and prune child spans.
./build-asan/apps/pghive discover "${tmpdir}/pole2" --incremental 4 \
  --state-dir "${tmpdir}/state-obs" --checkpoint-every 2 \
  --trace-out "${tmpdir}/durable-trace.json" > /dev/null
# CLI coverage: a 1-thread one-shot IYP x4 discovery, attributed from its
# metrics JSONL alone.
./build-asan/apps/pghive generate IYP "${tmpdir}/iyp4" \
  --nodes 48000 --edges 240000 > /dev/null
./build-asan/apps/pghive discover "${tmpdir}/iyp4" --format json \
  --threads 1 --metrics-out "${tmpdir}/cli-metrics.jsonl" > /dev/null
if command -v python3 > /dev/null; then
  python3 - "${tmpdir}/metrics.jsonl" "${tmpdir}/trace.json" \
    "${tmpdir}/durable-trace.json" "${tmpdir}/cli-metrics.jsonl" <<'PYEOF'
import collections, json, sys

metrics_path, trace_path, durable_trace_path, cli_metrics_path = sys.argv[1:5]

# CLI coverage: the direct children of the cli.discover root must cover at
# least 90% of its duration.
with open(cli_metrics_path) as f:
    spans = [o for o in map(json.loads, f) if o["type"] == "span"]
roots = [s for s in spans if s["name"] == "cli.discover"]
assert len(roots) == 1, f"expected one cli.discover span, got {len(roots)}"
root = roots[0]
children = collections.Counter()
for s in spans:
    if s["parent"] == root["id"]:
        children[s["name"]] += s["dur_us"]
coverage = sum(children.values()) / root["dur_us"]
print(f"cli.discover coverage {coverage:.3f} of {root['dur_us'] / 1e6:.3f} s: "
      + ", ".join(f"{n} {us / 1e6:.3f} s" for n, us in children.most_common()))
if coverage < 0.9:
    raise SystemExit(f"CLI span coverage {coverage:.3f} < 0.9")

# Metrics JSONL: every line valid JSON with type+name; span_stats present.
types = set()
with open(metrics_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        assert "type" in obj and "name" in obj, obj
        types.add(obj["type"])
for required in ("counter", "span_stats", "span"):
    assert required in types, f"missing {required} lines, got {types}"

# Chrome trace: a JSON array of complete events, non-empty, all ph == "X",
# containing the per-batch pipeline spans.
with open(trace_path) as f:
    events = json.load(f)
assert isinstance(events, list) and events, "empty trace"
assert all(e["ph"] == "X" for e in events)
for key in ("name", "ts", "dur", "pid", "tid"):
    assert all(key in e for e in events), f"missing {key}"
names = {e["name"] for e in events}
assert "pipeline.batch" in names, names
assert "incremental.fold" in names, names

with open(durable_trace_path) as f:
    counts = collections.Counter(e["name"] for e in json.load(f))
checkpoints = counts["store.checkpoint"]
assert checkpoints >= 1, counts
for child in ("store.snapshot_build", "store.snapshot_encode",
              "store.snapshot_write", "store.prune"):
    assert counts[child] == checkpoints, (child, counts[child], checkpoints)
print(f"observability export ok: {len(events)} spans, "
      f"{sorted(types)} metric line types, {checkpoints} checkpoints "
      f"with 4 child spans each")
PYEOF
else
  # No python3: at least require non-empty outputs with the magic markers.
  grep -q '"type":"span_stats"' "${tmpdir}/metrics.jsonl"
  grep -q '"ph":"X"' "${tmpdir}/trace.json"
  for span in store.checkpoint store.snapshot_build store.snapshot_encode \
      store.snapshot_write store.prune; do
    grep -q "\"${span}\"" "${tmpdir}/durable-trace.json"
  done
  grep -q '"cli.discover"' "${tmpdir}/cli-metrics.jsonl"
fi

echo "=== all checks passed ==="
