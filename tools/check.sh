#!/usr/bin/env bash
# Build + test sweep across sanitizer modes, plus repo hygiene lints.
#
# Usage:
#   tools/check.sh              # plain, address (ASan+UBSan), thread (TSan)
#   tools/check.sh plain        # one mode only
#   tools/check.sh thread       # TSan ctest, then a repeat leg: the
#                               # ThreadPool|ParallelSweep|SweepRequest|
#                               # Service tests, the pooled stack
#                               # family test, the shared line-group
#                               # test, the claim-latch tests and the
#                               # shared classify pass test, the
#                               # concurrent manifest-latch test, the
#                               # claim-first tests, the tag-variant
#                               # sweep tests, the instrumented-replay
#                               # tests and the concurrent live-point
#                               # test 50 times over (-j4)
#   tools/check.sh --quick      # lint + plain mode only (no sanitizer rebuilds)
#   tools/check.sh thread 'ThreadPool*:ParallelSweep*'   # mode + ctest -R filter
#   tools/check.sh --fuzz-seconds 60   # add a time-boxed fuzz soak (plain leg)
#   tools/check.sh benches      # the 14 figure binaries at --jobs 1
#                               # and --jobs 4 with --emit-json:
#                               # stdout must be identical and the
#                               # manifests equal except "timing";
#                               # prints each run's wall time and
#                               # peak RSS (informational, no gate)
#   tools/check.sh perf         # Release -Werror build of every
#                               # target, then the throughput gate:
#                               # bench_simspeed vs BENCH_simspeed.json
#                               # (tools/perf_compare.py)
#   tools/check.sh sampling     # sampled-vs-full differential: the
#                               # SampledDifferential dual-replay on the
#                               # reduced fuzz corpus + paper workloads,
#                               # warming-state equality, CI math
#   tools/check.sh stack        # stack-vs-exact differential under ASan:
#                               # the single-pass stack engine against
#                               # exact replay on presets + fuzz corpus,
#                               # Mattson properties, analytic oracle
#   tools/check.sh telemetry    # observability pipeline smoke: a
#                               # sweep with --interval and
#                               # --heatmap, then sac_report.py
#                               # check/render/diff over the manifests
#                               # (diff must catch an injected
#                               # regression and survive a zero
#                               # baseline)
#   tools/check.sh checkpoint   # live-point library end to end: the
#                               # Checkpoint differential tests, a
#                               # cold sampled sweep that writes the
#                               # .saclp library, a warm re-sweep that
#                               # must serve every cell from it with
#                               # byte-identical tables, and a
#                               # corrupt-library probe that must
#                               # silently warm and rewrite
#   tools/check.sh service      # sweep service end to end: the
#                               # Service* tests, then a live sacd
#                               # driven by sacctl — submit/status/
#                               # metrics verbs, streamed manifests
#                               # byte-identical to the CLI bench
#                               # path (modulo wall-clock timing),
#                               # and a SIGTERM mid-request that
#                               # must drain gracefully (client
#                               # still gets its full response)
#
# Each mode builds into build-check-<mode>/ with -DSAC_SANITIZE=<mode>
# (empty for plain) and runs ctest; the plain leg compiles with
# -Werror, so a warning fails it. The script stops at the first
# failing mode.
#
# Fuzzing: the differential fuzz sweep always runs the structural
# invariant auditor (attaching it selects the simulator's Observed
# access path in every build). The address (ASan+UBSan) leg
# additionally replays the fixed-seed fuzz budget through
# examples/fuzz_replay; --fuzz-seconds N appends a randomized soak of
# N seconds to the plain leg.

set -euo pipefail
cd "$(dirname "$0")/.."

# Tracked-artifact lint: build outputs must never be committed. This
# catches re-additions of what .gitignore is meant to keep out.
tracked_artifacts="$(git ls-files | grep -E '^build[^/]*/|\.o$' || true)"
if [[ -n "${tracked_artifacts}" ]]; then
    echo "error: build artifacts are tracked by git:" >&2
    echo "${tracked_artifacts}" | head -20 >&2
    echo "(run: git rm -r --cached <path> and commit)" >&2
    exit 1
fi

fuzz_seconds=0
args=()
while [[ $# -gt 0 ]]; do
    case "$1" in
      --fuzz-seconds)
        [[ $# -ge 2 ]] || { echo "--fuzz-seconds needs a value" >&2; exit 2; }
        fuzz_seconds="$2"
        shift 2 ;;
      --fuzz-seconds=*)
        fuzz_seconds="${1#*=}"
        shift ;;
      *)
        args+=("$1")
        shift ;;
    esac
done
set -- "${args[@]+"${args[@]}"}"

if [[ "${1:-}" == "--quick" ]]; then
    modes=(plain)
    filter="${2:-}"
else
    modes=("${1:-}")
    if [[ -z "${modes[0]}" ]]; then
        modes=(plain address thread)
    fi
    filter="${2:-}"
fi

for mode in "${modes[@]}"; do
    if [[ "$mode" == "benches" ]]; then
        # Benches leg: every figure table and manifest is independent
        # of the worker count. Each binary runs serially and on four
        # workers; the outputs must match byte for byte, and the
        # manifest sets must match document for document once the
        # wall-clock "timing" object is dropped. Each run's wall time
        # and peak RSS are printed for the record, not gated.
        build_dir="build-check-benches"
        benches=(bench_fig01_locality bench_fig03_bypass_victim
                 bench_fig04_instrumentation bench_fig06_amat
                 bench_fig07_traffic_missratio bench_fig08_linesize
                 bench_fig09_size_assoc bench_fig10_latency_subr
                 bench_fig11_blocking_copying bench_fig12_prefetch
                 bench_ablation_design bench_robustness
                 bench_related_work bench_profile_tags)
        echo "=== [benches] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        targets=()
        for b in "${benches[@]}"; do
            targets+=(--target "$b")
        done
        cmake --build "${build_dir}" -j "$(nproc)" "${targets[@]}"
        run_dir="${build_dir}/benches-run"
        rm -rf "${run_dir}"
        mkdir -p "${run_dir}"
        for b in "${benches[@]}"; do
            echo "=== [benches] ${b} ==="
            for jobs in 1 4; do
                python3 - "${run_dir}/${b}.j${jobs}.txt" \
                    "${build_dir}/bench/${b}" --jobs "${jobs}" \
                    --emit-json "${run_dir}/${b}.j${jobs}" <<'EOF'
import os, subprocess, sys, time
out, cmd = sys.argv[1], sys.argv[2:]
with open(out, "w") as f:
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=f)
    _, status, usage = os.wait4(proc.pid, 0)
print(f"  --jobs {cmd[2]}: wall {time.monotonic() - start:.2f} s, "
      f"peak RSS {usage.ru_maxrss / 1024:.0f} MiB")
sys.exit(os.waitstatus_to_exitcode(status))
EOF
            done
            cmp "${run_dir}/${b}.j1.txt" "${run_dir}/${b}.j4.txt" \
                || { echo "${b}: stdout differs across --jobs" >&2; exit 1; }
            python3 - "${run_dir}/${b}.j1" "${run_dir}/${b}.j4" <<'EOF'
import json, os, sys
one, four = sys.argv[1], sys.argv[2]
def listing(d):
    return sorted(os.listdir(d)) if os.path.isdir(d) else []
if listing(one) != listing(four):
    sys.exit(f"{four}: manifest set differs from {one}")
def canon(path):
    with open(path) as f:
        doc = json.load(f)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)
for name in listing(one):
    if name.endswith(".json") and \
            canon(os.path.join(one, name)) != canon(os.path.join(four, name)):
        sys.exit(f"{name}: --jobs 4 manifest differs from --jobs 1")
print(f"  {len(listing(one))} manifests identical modulo timing")
EOF
        done
        echo "=== [benches] OK ==="
        continue
    fi
    if [[ "$mode" == "perf" ]]; then
        # Perf leg: the Release throughput build the baseline was
        # taken on (perf_compare.py refuses any other), then compare
        # simulator throughput against the committed baseline and the
        # within-run ratios. Fails on >15% regression. Every target is
        # built with -Werror first, so a warning that only a Release
        # build prints fails here too.
        build_dir="build-check-perf"
        echo "=== [perf] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=Release \
            -DCMAKE_CXX_FLAGS=-Werror > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)"
        echo "=== [perf] bench_simspeed ==="
        "${build_dir}/bench/bench_simspeed" \
            --benchmark_out="${build_dir}/simspeed.json" \
            --benchmark_out_format=json \
            --benchmark_repetitions=5 \
            --benchmark_report_aggregates_only=true \
            --emit-json "${build_dir}/manifests"
        echo "=== [perf] compare vs BENCH_simspeed.json ==="
        python3 tools/perf_compare.py check "${build_dir}/simspeed.json"
        echo "=== [perf] OK ==="
        continue
    fi
    if [[ "$mode" == "sampling" ]]; then
        # Sampling leg: prove the statistical sampling engine against
        # ground truth — sampled-vs-full dual replay on the reduced
        # fuzz corpus and the paper workloads, warming-vs-detailed
        # bit-for-bit state equality, and the interval-coverage math.
        build_dir="build-check-sampling"
        echo "=== [sampling] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_sampling_test
        echo "=== [sampling] ctest (sampled dual-replay) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Sampl|Warming'
        echo "=== [sampling] OK ==="
        continue
    fi
    if [[ "$mode" == "stack" ]]; then
        # Stack leg: prove the single-pass stack-distance engine under
        # ASan+UBSan — bit-identical miss counts against exact replay
        # on the preset lattice and the standard-config subset of the
        # fuzz corpus, Mattson inclusion properties, the closed-form
        # independent-reference oracle, and the one-traversal harness
        # dispatch.
        build_dir="build-check-stack"
        echo "=== [stack] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="address" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_stack_engine_test
        echo "=== [stack] ctest (stack-vs-exact differential) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Stack'
        echo "=== [stack] OK ==="
        continue
    fi
    if [[ "$mode" == "telemetry" ]]; then
        # Telemetry leg: drive the full observability pipeline end to
        # end — run the interval differential tests, sweep Figure 7 with
        # --interval/--heatmap, then validate + render the output with
        # sac_report.py and prove `diff` catches a planted regression.
        build_dir="build-check-telemetry"
        echo "=== [telemetry] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target bench_fig07_traffic_missratio \
            --target sac_test_interval_test \
            --target sac_test_telemetry_test
        echo "=== [telemetry] ctest (interval differential) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Interval|SetProfiler|Histogram|Prometheus|EventTrace'
        echo "=== [telemetry] instrumented sweep ==="
        run_dir="${build_dir}/telemetry-run"
        rm -rf "${run_dir}"
        "${build_dir}/bench/bench_fig07_traffic_missratio" \
            --jobs 2 --emit-json "${run_dir}" \
            --interval 2000 --heatmap > /dev/null
        ls "${run_dir}"/*.intervals.jsonl > /dev/null
        echo "=== [telemetry] sac_report.py check + render ==="
        python3 tools/sac_report.py check "${run_dir}"
        python3 tools/sac_report.py render "${run_dir}" \
            -o "${build_dir}/sac-report.html"
        echo "=== [telemetry] sac_report.py diff (self = clean) ==="
        python3 tools/sac_report.py diff "${run_dir}" "${run_dir}"
        echo "=== [telemetry] sac_report.py diff (planted regression) ==="
        perturbed="${build_dir}/telemetry-run-perturbed"
        rm -rf "${perturbed}"
        cp -r "${run_dir}" "${perturbed}"
        python3 - "${perturbed}" <<'EOF'
import glob, json, sys
path = sorted(glob.glob(sys.argv[1] + "/*.json"))[0]
with open(path) as f:
    doc = json.load(f)
doc["metrics"]["miss_ratio"] = doc["metrics"]["miss_ratio"] * 1.5 + 0.01
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
EOF
        if python3 tools/sac_report.py diff "${run_dir}" "${perturbed}" \
            > /dev/null 2>&1; then
            echo "error: sac_report.py diff missed the planted regression" >&2
            exit 1
        fi
        echo "=== [telemetry] sac_report.py diff (zero baseline) ==="
        # A baseline metric of exactly 0 used to divide to inf and fail
        # every diff; the comparison must fall back to the absolute
        # delta, so a drift inside the threshold still passes.
        zero_a="${build_dir}/telemetry-run-zero-a"
        zero_b="${build_dir}/telemetry-run-zero-b"
        rm -rf "${zero_a}" "${zero_b}"
        cp -r "${run_dir}" "${zero_a}"
        cp -r "${run_dir}" "${zero_b}"
        python3 - "${zero_a}" "${zero_b}" <<'EOF'
import glob, json, sys
for run, value in ((sys.argv[1], 0.0), (sys.argv[2], 0.01)):
    path = sorted(glob.glob(run + "/*.json"))[0]
    with open(path) as f:
        doc = json.load(f)
    doc["metrics"]["miss_ratio"] = value
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
EOF
        zero_out="$(python3 tools/sac_report.py diff \
            "${zero_a}" "${zero_b}")" || {
            echo "error: zero-baseline diff failed (inf regression?)" >&2
            echo "${zero_out}" >&2
            exit 1
        }
        if echo "${zero_out}" | grep -qi 'inf'; then
            echo "error: zero-baseline diff still emits inf:" >&2
            echo "${zero_out}" >&2
            exit 1
        fi
        echo "=== [telemetry] OK ==="
        continue
    fi
    if [[ "$mode" == "checkpoint" ]]; then
        # Checkpoint leg: prove the live-point library end to end —
        # the Checkpoint differential + invalidation tests, then a
        # cold sampled sweep that builds and persists the library, a
        # warm re-sweep that must serve every cell from it (hits > 0,
        # zero misses) with byte-identical figure tables, and a
        # corrupt-library probe that must silently warm and rewrite
        # (stale counted, same tables) instead of restoring garbage.
        build_dir="build-check-checkpoint"
        echo "=== [checkpoint] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sac_test_checkpoint_test \
            --target sac_test_trace_test \
            --target bench_fig07_traffic_missratio
        echo "=== [checkpoint] ctest (differential + invalidation) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Checkpoint|ArchState|TraceIoSkip'
        lib_dir="${build_dir}/checkpoint-lib"
        rm -rf "${lib_dir}" "${build_dir}"/checkpoint-run-* \
            "${build_dir}"/checkpoint-*.txt
        ck_sweep() {
            "${build_dir}/bench/bench_fig07_traffic_missratio" \
                --jobs 2 --sample --checkpoint-dir "${lib_dir}" \
                --emit-json "${build_dir}/checkpoint-run-$1" \
                > "${build_dir}/checkpoint-$1.txt"
        }
        ck_counters() {
            # Sum the per-cell library outcomes over one run's sampled
            # manifests and assert the expected outcome mix.
            python3 - "${build_dir}/checkpoint-run-$1" "$2" <<'EOF'
import glob, json, sys
run_dir, expect = sys.argv[1], sys.argv[2]
blocks = []
for path in sorted(glob.glob(run_dir + "/*.json")):
    with open(path) as f:
        doc = json.load(f)
    ck = doc.get("metrics", {}).get("checkpoint")
    if ck is None:
        continue
    if doc.get("engine") != "sampled-livepoint":
        sys.exit(f"{path}: checkpoint block without livepoint engine")
    blocks.append(ck)
if not blocks:
    sys.exit(f"{run_dir}: no sampled-livepoint manifests")
# Each block reports its own cell's outcome: sum them over the run.
ck = {key: sum(b.get(key, 0) for b in blocks)
      for key in ("hits", "misses", "stale", "bytes")}
hits, misses, stale = ck["hits"], ck["misses"], ck["stale"]
if ck["bytes"] <= 0:
    sys.exit(f"{run_dir}: checkpoint.bytes not accounted")
if expect == "cold" and not (misses > 0 and hits == 0 and stale == 0):
    sys.exit(f"{run_dir}: cold run expected all misses, got {ck}")
if expect == "warm" and not (hits > 0 and misses == 0 and stale == 0):
    sys.exit(f"{run_dir}: warm run expected all hits, got {ck}")
if expect == "stale" and not (stale >= 1 and misses >= 1):
    sys.exit(f"{run_dir}: stale run expected a rewrite, got {ck}")
print(f"  {expect}: hits={hits} misses={misses} stale={stale}")
EOF
        }
        echo "=== [checkpoint] cold sweep (builds the library) ==="
        ck_sweep cold
        ck_counters cold cold
        echo "=== [checkpoint] warm re-sweep (must hit the library) ==="
        ck_sweep warm
        ck_counters warm warm
        diff "${build_dir}/checkpoint-cold.txt" \
            "${build_dir}/checkpoint-warm.txt"
        echo "=== [checkpoint] corrupt-library probe (must warm) ==="
        victim="$(find "${lib_dir}" -name '*.saclp' | head -1)"
        [[ -n "${victim}" ]] || { echo "no .saclp written" >&2; exit 1; }
        python3 - "${victim}" <<'EOF'
import sys
with open(sys.argv[1], "r+b") as f:
    f.seek(40)
    byte = f.read(1)
    f.seek(40)
    f.write(bytes([byte[0] ^ 0x20]))
EOF
        ck_sweep stale
        ck_counters stale stale
        diff "${build_dir}/checkpoint-cold.txt" \
            "${build_dir}/checkpoint-stale.txt"
        echo "=== [checkpoint] OK ==="
        continue
    fi
    if [[ "$mode" == "service" ]]; then
        # Service leg: prove the sweep daemon end to end — the
        # Service* unit/integration tests, then a live sacd driven
        # over its Unix socket by sacctl. The streamed manifests must
        # be byte-identical to what the CLI bench path writes with
        # --emit-json (modulo the wall-clock "timing" object), the
        # status/metrics verbs must report the admitted request, and
        # a SIGTERM while a request is in flight must drain
        # gracefully: the client still receives its full response and
        # the daemon exits 0 after "sacd: stopped".
        build_dir="build-check-service"
        echo "=== [service] configure + build (${build_dir}) ==="
        cmake -B "${build_dir}" -S . -DSAC_SANITIZE="" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
        cmake --build "${build_dir}" -j "$(nproc)" \
            --target sacd --target sacctl \
            --target sac_test_service_test \
            --target sac_test_sweep_request_test \
            --target bench_fig07_traffic_missratio
        echo "=== [service] ctest (protocol + server + request API) ==="
        ctest --test-dir "${build_dir}" --output-on-failure \
            -j "$(nproc)" -R 'Service|SweepRequest'
        svc_dir="${build_dir}/service-run"
        rm -rf "${svc_dir}"
        mkdir -p "${svc_dir}"
        sock="${svc_dir}/sacd.sock"
        ctl() { "${build_dir}/examples/sacctl" --socket="${sock}" "$@"; }
        echo "=== [service] CLI reference sweep (--emit-json) ==="
        "${build_dir}/bench/bench_fig07_traffic_missratio" \
            --jobs 2 --emit-json "${svc_dir}/cli-manifests" \
            > "${svc_dir}/cli-table.txt"
        echo "=== [service] start sacd ==="
        "${build_dir}/examples/sacd" --socket="${sock}" \
            --workers=2 --queue-cap=4 > "${svc_dir}/sacd.log" 2>&1 &
        sacd_pid=$!
        trap 'kill "${sacd_pid}" 2>/dev/null || true' EXIT
        for _ in $(seq 1 100); do
            [[ -S "${sock}" ]] && break
            kill -0 "${sacd_pid}" 2>/dev/null \
                || { cat "${svc_dir}/sacd.log" >&2; exit 1; }
            sleep 0.1
        done
        [[ -S "${sock}" ]] || { echo "sacd never bound ${sock}" >&2; exit 1; }
        echo "=== [service] submit: streamed vs CLI manifests ==="
        ctl submit --workloads=MV,SpMV \
            --presets=standard,soft-temporal,soft-spatial,soft \
            --metric=miss-ratio --jobs=2 \
            --out="${svc_dir}/streamed" > "${svc_dir}/svc-table.txt"
        python3 - "${svc_dir}/streamed" "${svc_dir}/cli-manifests" <<'EOF'
import glob, json, os, sys
streamed, reference = sys.argv[1], sys.argv[2]
names = sorted(os.path.basename(p)
               for p in glob.glob(streamed + "/*.json"))
if not names:
    sys.exit(f"{streamed}: no streamed manifests")
def canon(path):
    with open(path) as f:
        doc = json.load(f)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)
for name in names:
    ref = os.path.join(reference, name)
    if not os.path.exists(ref):
        sys.exit(f"{name}: streamed manifest has no CLI counterpart")
    if canon(os.path.join(streamed, name)) != canon(ref):
        sys.exit(f"{name}: streamed document differs from CLI path")
print(f"  {len(names)} streamed manifests byte-identical to the "
      f"CLI path (modulo timing)")
EOF
        echo "=== [service] status + metrics verbs ==="
        ctl status > "${svc_dir}/status.json"
        python3 - "${svc_dir}/status.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc.get("requests", doc)
if counters.get("accepted", 0) < 1:
    sys.exit(f"status did not count the accepted request: {doc}")
if counters.get("completed", 0) < 1:
    sys.exit(f"status did not count the completed request: {doc}")
EOF
        ctl metrics > "${svc_dir}/metrics.prom"
        grep -q 'sacd_request_accepted' "${svc_dir}/metrics.prom"
        grep -q 'sacd_request_completed' "${svc_dir}/metrics.prom"
        echo "=== [service] SIGTERM mid-request drains gracefully ==="
        ctl submit --workloads=MDG,BDN,DYF --presets=victim,2way \
            --metric=amat --jobs=2 \
            --out="${svc_dir}/drain" > "${svc_dir}/drain-table.txt" &
        client_pid=$!
        sleep 0.5
        kill -TERM "${sacd_pid}"
        wait "${client_pid}" \
            || { echo "client lost its in-flight sweep" >&2; exit 1; }
        [[ -s "${svc_dir}/drain-table.txt" ]] \
            || { echo "drained client received no table" >&2; exit 1; }
        wait "${sacd_pid}" \
            || { echo "sacd exited non-zero" >&2; exit 1; }
        trap - EXIT
        grep -q 'sacd: stopped' "${svc_dir}/sacd.log"
        [[ ! -S "${sock}" ]] \
            || { echo "socket not unlinked on drain" >&2; exit 1; }
        echo "=== [service] OK ==="
        continue
    fi
    # The plain leg keeps the default build warning-free.
    werror=""
    case "$mode" in
      plain)   sanitize=""; werror="-Werror" ;;
      address) sanitize="address" ;;
      thread)  sanitize="thread" ;;
      *) echo "unknown mode '$mode' (plain|address|thread|benches|perf|sampling|stack|telemetry|checkpoint|service|--quick)" >&2; exit 2 ;;
    esac
    build_dir="build-check-${mode}"
    echo "=== [${mode}] configure + build (${build_dir}) ==="
    cmake -B "${build_dir}" -S . -DSAC_SANITIZE="${sanitize}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="${werror}" > /dev/null
    cmake --build "${build_dir}" -j "$(nproc)"
    echo "=== [${mode}] ctest ==="
    ctest_args=(--test-dir "${build_dir}" --output-on-failure -j "$(nproc)")
    if [[ -n "${filter}" ]]; then
        ctest_args+=(-R "${filter}")
    fi
    ctest "${ctest_args[@]}"
    if [[ "$mode" == "thread" ]]; then
        # Flakes in the concurrency suites only show on some
        # interleavings: repeat them until one fails.
        echo "=== [${mode}] repeat leg (50x concurrency suites) ==="
        ctest --test-dir "${build_dir}" --output-on-failure -j 4 \
            --repeat until-fail:50 \
            -R 'ThreadPool|ParallelSweep|SweepRequest|Service|StackFamily\.(PooledFamiliesMatchSerial|ConcurrentRequestsShareLineGroups)|Streaming\.(ConcurrentRequests|FailedTraversal)|Classify\.ConcurrentRequestsShareOnePass|ManifestLatch\.ConcurrentEmissionsAgree|ClaimFirst\.|TagVariantSweep\.|InstrumentedReplay\.|CheckpointRunnerTest\.ConcurrentLivepointRequestsMatchSerial'
    fi
    if [[ "$mode" == "address" ]]; then
        echo "=== [${mode}] fixed-seed fuzz budget ==="
        "${build_dir}/examples/fuzz_replay" --cases 5000
    fi
    if [[ "$mode" == "plain" && "${fuzz_seconds}" -gt 0 ]]; then
        echo "=== [${mode}] fuzz soak (${fuzz_seconds}s) ==="
        "${build_dir}/examples/fuzz_replay" --seconds "${fuzz_seconds}"
    fi
    echo "=== [${mode}] OK ==="
done
