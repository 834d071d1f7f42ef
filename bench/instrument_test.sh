#!/bin/sh
# --interval and --heatmap must instrument the exact cell manifests of
# a figure bench in every build: bench_fig07_traffic_missratio writes
# sibling *.intervals.jsonl series and "profile" heat blocks, and
# tools/sac_report.py check accepts the directory.
#
# Usage: instrument_test.sh path/to/bench_fig07_traffic_missratio \
#            path/to/sac_report.py
set -eu
bench="$1"
report="$2"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$bench" --jobs 2 --emit-json "$dir" --interval 2000 --heatmap >/dev/null
if ! ls "$dir"/*.intervals.jsonl >/dev/null 2>&1; then
    echo "FAIL: no *.intervals.jsonl series under --interval 2000"
    exit 1
fi
if ! grep -l '"profile"' "$dir"/*.json >/dev/null 2>&1; then
    echo "FAIL: no manifest carries a \"profile\" block under --heatmap"
    exit 1
fi
python3 "$report" check "$dir"
