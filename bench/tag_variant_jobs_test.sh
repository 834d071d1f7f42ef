#!/bin/sh
# Each tag-variant bench must print the same tables at --jobs 1 and
# --jobs 4: a variant's traversals each apply a fresh mutator.
#
# Usage: tag_variant_jobs_test.sh path/to/bench_robustness ...
set -eu
for bench in "$@"; do
    one=$("$bench" --jobs 1)
    four=$("$bench" --jobs 4)
    if [ -z "$one" ] || [ "$one" != "$four" ]; then
        echo "FAIL: $bench prints different tables at --jobs 1 and 4"
        exit 1
    fi
done
