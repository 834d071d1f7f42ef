#!/bin/sh
# perf_compare.py update --only REGEX must rewrite only the matching
# baseline rows, keep every other row and _meta, and refuse a report
# from a different host or build.
#
# Usage: perf_compare_test.sh path/to/perf_compare.py
set -eu
tool="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cat >"$dir/base.json" <<'JSON'
{"_meta": {"source": "x", "mhz_per_cpu": 1, "host_cpus": 4,
           "build_type": "Release"},
 "items_per_second": {"BM_A": 1.0, "BM_TraceGeneration": 2.0}}
JSON
cat >"$dir/report.json" <<'JSON'
{"context": {"num_cpus": 4, "sac_build_type": "Release"},
 "benchmarks": [
   {"name": "BM_A", "run_type": "iteration", "items_per_second": 50.0},
   {"name": "BM_TraceGeneration", "run_type": "iteration",
    "items_per_second": 70.0},
   {"name": "BM_TraceGenerationIndirect", "run_type": "iteration",
    "items_per_second": 30.0}]}
JSON
python3 "$tool" update "$dir/report.json" --baseline "$dir/base.json" \
    --only '^BM_TraceGeneration' >/dev/null
python3 - "$dir/base.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["items_per_second"]
assert rows == {"BM_A": 1.0, "BM_TraceGeneration": 70.0,
                "BM_TraceGenerationIndirect": 30.0}, rows
assert doc["_meta"]["source"] == "x", doc["_meta"]
PY
sed 's/"num_cpus": 4/"num_cpus": 1/' "$dir/report.json" >"$dir/other.json"
if python3 "$tool" update "$dir/other.json" --baseline "$dir/base.json" \
    --only 'BM_A' >/dev/null 2>&1; then
    echo "FAIL: --only merged a report from a different host"
    exit 1
fi
if python3 "$tool" update "$dir/report.json" --baseline "$dir/base.json" \
    --only 'NoSuchRow' >/dev/null 2>&1; then
    echo "FAIL: --only accepted a pattern matching no row"
    exit 1
fi
