#!/usr/bin/env python3
"""Throughput gate for bench_simspeed (stdlib only).

Reads a google-benchmark JSON report (``--benchmark_out`` format) and
checks it two ways:

1. Baseline drift: every benchmark present in both the report and the
   committed baseline (BENCH_simspeed.json) must keep at least
   ``1 - tolerance`` of the baseline's items_per_second (default
   tolerance 15%). The baseline is host-dependent; refresh it with
   ``update`` when the reference machine changes.

   Benchmarks present on only one side (baseline or report) warn
   instead of failing, so filtered runs and freshly added benchmarks
   do not break the gate; only zero overlap is fatal.

2. Within-run ratios (host-independent): the functional-warming,
   sampled-sweep, preclassified-replay and other pairs in
   RATIO_FLOORS assert their speedup floors (2x, 5x, 1.5x, ...).
   Ratios are computed from the report alone, so they hold on any
   host.
   Floors marked parallel (multi-worker vs. serial) are skipped when
   the report was taken on a single-CPU host. The cost of attaching an
   interval recorder is printed as a ratio without a floor.

Before either check, the report's host and build must match the
baseline's ``_meta``: CPU count and the simulator's build type (which
bench_simspeed records in the report context). A mismatch exits
non-zero naming every differing field, because throughput from a
different host or build says nothing about a regression.

Usage:
  tools/perf_compare.py check  <report.json> [--baseline FILE]
                               [--tolerance F] [--ratio-slack F]
                               [--emit-json FILE]
  tools/perf_compare.py update <report.json> [--baseline FILE]
                               [--only REGEX]

``update --only REGEX`` rewrites only the baseline rows whose names
match REGEX (re.search) and keeps every other row and ``_meta`` as
they are, so one refreshed row does not silently re-baseline the
rest. A matching baseline row the report lacks is removed (the
benchmark was deleted or renamed), and the removal is printed. It refuses a report whose host or build differs from the
baseline's ``_meta``, since the merged file would mix hosts.

``--emit-json FILE`` additionally writes a machine-readable
``sac-perf-summary-v1`` document (per-benchmark ratio and drift,
pass/fail) so CI and tools/sac_report.py can chart the perf
trajectory instead of scraping stdout.

Single runs on a shared host are noisy: the ``tools/check.sh perf``
leg and the committed baseline use ``--benchmark_repetitions=5``, and
the gate then reads each benchmark's median.

Short runs (``--benchmark_min_time=0.1``, as in the ``perf-smoke``
target) are noisy; pass a larger ``--tolerance`` and a nonzero
``--ratio-slack`` (subtracted from every ratio floor) there, and keep
the defaults for the full-length ``tools/check.sh perf`` leg.

The baseline path defaults to BENCH_simspeed.json next to the repo
root (this script's parent directory); the SAC_PERF_BASELINE
environment variable overrides it.
"""

import argparse
import json
import os
import re
import sys

DEFAULT_TOLERANCE = 0.15

# (fast benchmark, slow benchmark, min ratio, parallel). The warming
# and sampled floors are speedup claims (the acceptance criteria of
# the sampling engine): functional warming must run >=2x the detailed
# path, and the sampled sweep >=5x the full-detail sweep.
# Likewise the stack floor: ONE Mattson stack-distance traversal must
# answer the 8-cell standard family >=4x faster than eight exact
# replays (and, unlike sampling, with bit-identical miss counts).
# Floors marked parallel compare multi-worker against serial runs and
# are skipped when the report's host has a single CPU, where extra
# workers only add contention. There is no intra-cell parallel
# floor: window replay and a set-sharded stack pass measured at most
# 1.16x on 4 cores and were removed (DESIGN.md section 16).
RATIO_FLOORS = [
    ("BM_SimulateSoftWarming", "BM_SimulateSoft", 2.0, False),
    ("BM_SweepSampled", "BM_SweepFullDetail", 5.0, False),
    # The live-point floor: a sampled re-sweep served from a warm
    # checkpoint library restores each window's architectural state
    # instead of functionally warming it, so it must run >=5x the cold
    # sampled sweep at the same deep-warmup geometry (the acceptance
    # gate of the checkpoint library; the Checkpoint tests prove the
    # restored runs are bit-identical in RunStats).
    ("BM_SweepSampledCheckpointed", "BM_SweepSampled", 5.0, False),
    ("BM_SweepStackSinglePass", "BM_SweepPerConfigReplay", 4.0, False),
    # Shared shadow outcomes: Soft replay on supplied outcomes against
    # the same replay running its own three-C classifier. The floor is
    # the median of 8 five-repetition runs on a 4-core host (1.81x)
    # minus their IQR (0.28); the ROADMAP target is 1.8x.
    ("BM_SimulateSoftPreclassified", "BM_SimulateSoft", 1.5, False),
    ("BM_StreamedMatrixSweep/2/real_time",
     "BM_StreamedMatrixSweep/1/real_time", 1.0, True),
    # Line-group stack passes: the 84-point lattice over a long and a
    # short resident trace, 4 workers against 1. Each line group is a
    # traversal of its own, so the long trace's three passes run in
    # parallel. The floor is the median of 8 five-repetition runs on
    # a 4-core host (2.56x) minus their IQR (0.84); the same request
    # with one traversal per workload measured 1.25x.
    ("BM_StackLatticeSweep/4/real_time",
     "BM_StackLatticeSweep/1/real_time", 1.7, True),
]

# (observed benchmark, plain benchmark): printed and summarized without
# a floor. Attaching an observer switches the simulator to its Observed
# access path, so the ratio is the real cost of that observer.
OBSERVER_COST = ("BM_SimulateSoftInterval", "BM_SimulateSoft")


def default_baseline():
    env = os.environ.get("SAC_PERF_BASELINE")
    if env:
        return env
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(root, "BENCH_simspeed.json")


def load_report(path):
    """items_per_second per benchmark: the median aggregate of a
    --benchmark_repetitions run, else the single iteration entry."""
    with open(path) as f:
        report = json.load(f)
    out = {}
    medians = {}
    for b in report.get("benchmarks", []):
        ips = b.get("items_per_second")
        if not ips:
            continue
        if b.get("run_type", "iteration") == "iteration":
            out[b["name"]] = float(ips)
        elif b.get("aggregate_name") == "median":
            medians[b["run_name"]] = float(ips)
    out.update(medians)
    if not out:
        sys.exit(f"error: no items_per_second entries in {path}")
    return out, report.get("context", {})


# _meta field -> report context key. The host and build a baseline
# was taken on; check refuses a report whose values differ.
BUILD_FIELDS = {
    "host_cpus": "num_cpus",
    "build_type": "sac_build_type",
}


def host_mismatches(meta, context):
    """Fields of BUILD_FIELDS where the report and baseline differ."""
    return [
        f"{field}: report {context.get(key)!r}, "
        f"baseline {meta.get(field)!r}"
        for field, key in BUILD_FIELDS.items()
        if context.get(key) != meta.get(field)]


def update_only(args, current, context):
    """Rewrite the rows matching --only; keep the rest and _meta."""
    with open(args.baseline) as f:
        doc = json.load(f)
    mismatches = host_mismatches(doc.get("_meta", {}), context)
    if mismatches:
        sys.exit("error: the report's host or build differs from the "
                 "baseline's; refusing to merge its rows:\n  "
                 + "\n  ".join(mismatches))
    pattern = re.compile(args.only)
    rows = doc["items_per_second"]
    matched = sorted(name for name in current if pattern.search(name))
    if not matched:
        sys.exit(f"error: no benchmark in {args.report} matches "
                 f"{args.only!r}")
    for name in sorted(rows):
        if pattern.search(name) and name not in current:
            print(f"  {name}: {rows.pop(name) / 1e6:.2f} M/s -> removed")
    for name in matched:
        old = rows.get(name)
        rows[name] = round(current[name], 1)
        was = "new" if old is None else f"{old / 1e6:.2f} M/s"
        print(f"  {name}: {was} -> {rows[name] / 1e6:.2f} M/s")
    doc["items_per_second"] = dict(sorted(rows.items()))
    with open(args.baseline, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"rewrote {len(matched)} of {len(rows)} baseline entries in "
          f"{args.baseline}")


def cmd_update(args):
    current, context = load_report(args.report)
    if args.only:
        update_only(args, current, context)
        return
    meta = {"source": "tools/perf_compare.py update",
            "mhz_per_cpu": context.get("mhz_per_cpu")}
    for field, key in BUILD_FIELDS.items():
        if context.get(key) is None:
            sys.exit(f"error: {args.report} does not record {key}; "
                     f"rebuild bench_simspeed from this tree")
        meta[field] = context[key]
    baseline = {
        "_meta": meta,
        "items_per_second": {
            name: round(ips, 1) for name, ips in sorted(current.items())
        },
    }
    with open(args.baseline, "w") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"wrote {len(current)} baseline entries to {args.baseline}")


def cmd_check(args):
    current, context = load_report(args.report)
    failures = []
    summary_benchmarks = []
    summary_ratios = []

    # 1. Drift against the committed baseline. Coverage mismatches in
    # either direction warn instead of fail: a renamed or added
    # benchmark should prompt a baseline refresh, not break the gate
    # for an unrelated change (only zero overlap is fatal).
    try:
        with open(args.baseline) as f:
            doc = json.load(f)
        baseline = doc["items_per_second"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read baseline {args.baseline}: {e}")
    mismatches = host_mismatches(doc.get("_meta", {}), context)
    if mismatches:
        sys.exit("error: the report's host or build differs from the "
                 "baseline's, so its throughput cannot be compared:\n  "
                 + "\n  ".join(mismatches)
                 + "\nrun on a matching host and build, or refresh "
                   "the baseline with 'update'")
    compared = 0
    for name, base_ips in sorted(baseline.items()):
        ips = current.get(name)
        if ips is None:
            print(f"  warning: {name} is in the baseline but not in "
                  f"this report (filtered run, or a stale baseline — "
                  f"refresh with 'update')")
            continue
        compared += 1
        floor = base_ips * (1.0 - args.tolerance)
        verdict = "ok" if ips >= floor else "REGRESSED"
        summary_benchmarks.append({
            "name": name,
            "items_per_second": ips,
            "baseline_items_per_second": base_ips,
            "drift": ips / base_ips - 1.0,
            "floor": floor,
            "ok": ips >= floor,
        })
        print(f"  {verdict:9s} {name}: {ips / 1e6:.2f} M/s "
              f"(baseline {base_ips / 1e6:.2f}, floor {floor / 1e6:.2f})")
        if ips < floor:
            failures.append(
                f"{name} regressed: {ips / 1e6:.2f} M/s < "
                f"{floor / 1e6:.2f} M/s "
                f"({100 * args.tolerance:.0f}% below baseline)")
    for name in sorted(set(current) - set(baseline)):
        print(f"  warning: {name} is in this report but not in the "
              f"baseline (new benchmark? refresh with 'update')")
    if compared == 0:
        failures.append("no benchmark overlaps the baseline")

    # 2. Host-independent within-run ratios.
    host_cpus = context.get("num_cpus")
    for fast, general, floor, parallel in RATIO_FLOORS:
        if fast not in current or general not in current:
            print(f"  (skip) ratio {fast}/{general}: missing entries")
            summary_ratios.append({"fast": fast, "slow": general,
                                   "skipped": "missing entries"})
            continue
        if parallel and host_cpus == 1:
            print(f"  (skip) ratio {fast}/{general}: single-CPU host, "
                  f"parallel floor not meaningful")
            summary_ratios.append({"fast": fast, "slow": general,
                                   "skipped": "single-CPU host"})
            continue
        floor = max(0.0, floor - args.ratio_slack)
        ratio = current[fast] / current[general]
        verdict = "ok" if ratio >= floor else "REGRESSED"
        summary_ratios.append({"fast": fast, "slow": general,
                               "ratio": ratio, "floor": floor,
                               "ok": ratio >= floor})
        print(f"  {verdict:9s} {fast}/{general} = {ratio:.2f}x "
              f"(floor {floor:.2f}x)")
        if ratio < floor:
            failures.append(
                f"within-run ratio below floor: "
                f"{fast}/{general} = {ratio:.2f}x < {floor:.2f}x")
    observed, plain = OBSERVER_COST
    if observed in current and plain in current:
        ratio = current[observed] / current[plain]
        summary_ratios.append({"fast": observed, "slow": plain,
                               "ratio": ratio, "ok": True})
        print(f"  {'info':9s} {observed}/{plain} = {ratio:.2f}x "
              f"(observer cost, no floor)")

    if args.emit_json:
        summary = {
            "schema": "sac-perf-summary-v1",
            "report": args.report,
            "baseline": args.baseline,
            "tolerance": args.tolerance,
            "ratio_slack": args.ratio_slack,
            "host_cpus": host_cpus,
            "benchmarks": summary_benchmarks,
            "ratios": summary_ratios,
            "pass": not failures,
            "failures": failures,
        }
        with open(args.emit_json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
        print(f"  wrote machine-readable summary to {args.emit_json}")

    if failures:
        print("\nperf check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)
    print("\nperf check passed")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, fn in (("check", cmd_check), ("update", cmd_update)):
        s = sub.add_parser(name)
        s.add_argument("report", help="google-benchmark JSON report")
        s.add_argument("--baseline", default=default_baseline())
        if name == "update":
            s.add_argument("--only", metavar="REGEX",
                           help="rewrite only the rows matching REGEX, "
                                "keeping every other row and _meta")
        if name == "check":
            s.add_argument("--tolerance", type=float,
                           default=DEFAULT_TOLERANCE)
            s.add_argument("--ratio-slack", type=float, default=0.0,
                           help="subtract from every ratio floor "
                                "(for short, noisy smoke runs)")
            s.add_argument("--emit-json", metavar="FILE",
                           help="write a machine-readable "
                                "sac-perf-summary-v1 JSON summary "
                                "(per-benchmark drift, ratios, "
                                "pass/fail) for CI and sac_report.py")
        s.set_defaults(fn=fn)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
