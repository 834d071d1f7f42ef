#!/bin/sh
# The suite tables of a figure bench must follow --trace-seed: the
# Figure 6a AMAT table of bench_fig06_amat under seed 12345 must
# differ from the default-seed run. (Figure 6b's hit shares are
# counts, which the issue-timing seed does not move.)
#
# Usage: trace_seed_test.sh path/to/bench_fig06_amat
set -eu
bench="$1"
fig6a() {
    "$@" | sed -n '/Figure 6a/,/Figure 6b/p'
}
default=$(fig6a "$bench" --jobs 2)
seeded=$(fig6a "$bench" --jobs 2 --trace-seed 12345)
if [ -z "$default" ] || [ "$default" = "$seeded" ]; then
    echo "FAIL: Figure 6a is identical under --trace-seed 12345"
    exit 1
fi
