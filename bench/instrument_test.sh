#!/bin/sh
# --interval and --heatmap must instrument the exact cell manifests of
# a figure bench in every build: bench_fig07_traffic_missratio writes
# sibling *.intervals.jsonl series and "profile" heat blocks, and
# tools/sac_report.py check accepts the directory, at --jobs 1 and
# --jobs 4 alike.
#
# Usage: instrument_test.sh path/to/bench_fig07_traffic_missratio \
#            path/to/sac_report.py
set -eu
bench="$1"
report="$2"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for jobs in 1 4; do
    "$bench" --jobs "$jobs" --emit-json "$dir/j$jobs" --interval 2000 \
        --heatmap >/dev/null
done
if ! ls "$dir"/j1/*.intervals.jsonl >/dev/null 2>&1; then
    echo "FAIL: no *.intervals.jsonl series under --interval 2000"
    exit 1
fi
if ! grep -l '"profile"' "$dir"/j1/*.json >/dev/null 2>&1; then
    echo "FAIL: no manifest carries a \"profile\" block under --heatmap"
    exit 1
fi
# Same files; series byte-identical, manifests equal apart from "timing".
python3 - "$dir/j1" "$dir/j4" <<'PY'
import json, os, sys
def load(d):
    out = {n: open(os.path.join(d, n), "rb").read() for n in os.listdir(d)}
    for n in [n for n in out if n.endswith(".json")]:
        out[n] = {k: v for k, v in json.loads(out[n]).items() if k != "timing"}
    return out
one, four = load(sys.argv[1]), load(sys.argv[2])
bad = sorted(n for n in one.keys() | four.keys() if one.get(n) != four.get(n))
if bad:
    sys.exit("FAIL: --jobs 1 and --jobs 4 differ: " + " ".join(bad))
PY
python3 "$report" check "$dir/j1"
