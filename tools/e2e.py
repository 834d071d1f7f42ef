#!/usr/bin/env python3
"""End-to-end figure artifact: wall time and peak RSS of every figure
binary at one worker and at every hardware thread.

    python3 tools/e2e.py [--build-dir DIR] [--out BENCH_e2e.json]
                         [--repeats N]

Without a configured --build-dir (default build-e2e) the script
configures it in Release and builds the 14 figure binaries first. Each
binary runs --repeats times at --jobs 1 and at --jobs $(nproc),
alternating the two; the artifact records every run's wall time, its
peak RSS (the child's ru_maxrss) and the SHA-256 of its stdout, the
per-binary medians, and the host shape (nproc, clock, compiler, build
type). Each binary then runs once more at --jobs 1 with --emit-json
into a temporary directory, outside the timed runs, and the artifact
stores the phase split of its suite-total manifest (timing.phases,
the Runner's lifetime phase timer; the last one the binary wrote). A
binary that exits non-zero, or whose stdout differs between runs, job
counts or with --emit-json, fails the script (exit 1) after the
artifact is written.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCHES = [
    "bench_fig01_locality", "bench_fig03_bypass_victim",
    "bench_fig04_instrumentation", "bench_fig06_amat",
    "bench_fig07_traffic_missratio", "bench_fig08_linesize",
    "bench_fig09_size_assoc", "bench_fig10_latency_subr",
    "bench_fig11_blocking_copying", "bench_fig12_prefetch",
    "bench_ablation_design", "bench_robustness",
    "bench_related_work", "bench_profile_tags",
]


def cache_value(build_dir, key):
    """A CMakeCache.txt entry of @p build_dir, or "" when absent."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build_dir):
    """Configure (once, Release) and build the figure binaries."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    targets = []
    for b in BENCHES:
        targets += ["--target", b]
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)] + targets,
                   check=True, stdout=sys.stderr)


def host_shape(build_dir):
    mhz = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("cpu MHz"):
                    mhz = float(line.split(":", 1)[1])
                    break
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"],
                             capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_mhz": mhz,
        "machine": platform.machine(),
        "compiler": version or compiler,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
    }


def run_once(binary, jobs, extra=()):
    """One run: (wall seconds, peak RSS MiB, stdout sha256, status)."""
    start = time.monotonic()
    proc = subprocess.Popen([binary, "--jobs", str(jobs), *extra],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    # Reaped here for its rusage: tell Popen not to wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, digest.hexdigest(), \
        proc.returncode


def suite_phases(binary):
    """(phase split of the suite-total manifest or None, stdout sha256,
    status) of one --jobs 1 --emit-json run of @p binary."""
    with tempfile.TemporaryDirectory(prefix="sac-e2e-") as out:
        _, _, sha, code = run_once(binary, 1, ("--emit-json", out))
        # The phases are the Runner's lifetime totals, so the suite
        # total written last holds the most seconds.
        phases = None
        for name in os.listdir(out):
            if not name.startswith("suite_total_"):
                continue
            with open(os.path.join(out, name)) as f:
                p = json.load(f).get("timing", {}).get("phases")
            if p and (phases is None or
                      total_seconds(p) > total_seconds(phases)):
                phases = p
    return phases, sha, code


def total_seconds(phases):
    return sum(v["seconds"] for v in phases.values()
               if isinstance(v, dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT,
                                                            "build-e2e"))
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_e2e.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats expects a positive integer")

    build(args.build_dir)
    wide = os.cpu_count() or 1
    job_counts = [1, wide] if wide > 1 else [1]
    failures = []
    binaries = {}
    for name in BENCHES:
        binary = os.path.join(args.build_dir, "bench", name)
        runs = {str(j): [] for j in job_counts}
        for rep in range(args.repeats):
            order = job_counts if rep % 2 == 0 else job_counts[::-1]
            for jobs in order:
                wall, rss, sha, code = run_once(binary, jobs)
                runs[str(jobs)].append({"wall_s": round(wall, 4),
                                        "peak_rss_mib": round(rss, 1),
                                        "stdout_sha256": sha})
                if code != 0:
                    failures.append(f"{name} --jobs {jobs}: exit {code}")
        entry = {}
        for jobs, rs in runs.items():
            entry[jobs] = {
                "wall_s_median": round(
                    statistics.median(r["wall_s"] for r in rs), 4),
                "peak_rss_mib_median": round(
                    statistics.median(r["peak_rss_mib"] for r in rs), 1),
                "runs": rs,
            }
        line = ", ".join(
            f"--jobs {j}: {e['wall_s_median']:.2f} s "
            f"{e['peak_rss_mib_median']:.0f} MiB" for j, e in entry.items())
        print(f"{name}: {line}", file=sys.stderr)
        shas = {r["stdout_sha256"] for rs in runs.values() for r in rs}
        if len(shas) != 1:
            failures.append(f"{name}: stdout differs between runs")
        entry["phases"], phase_sha, code = suite_phases(binary)
        if code != 0:
            failures.append(f"{name} --emit-json: exit {code}")
        elif phase_sha not in shas:
            failures.append(f"{name}: --emit-json changes stdout")
        binaries[name] = entry

    totals = {}
    for jobs in map(str, job_counts):
        totals[jobs] = {
            "wall_s_sum": round(sum(b[jobs]["wall_s_median"]
                                    for b in binaries.values()), 3),
            "peak_rss_mib_max": max(b[jobs]["peak_rss_mib_median"]
                                    for b in binaries.values()),
        }
    report = {
        "_meta": {
            "schema": "sac-e2e-v1",
            "host": host_shape(args.build_dir),
            "repeats": args.repeats,
            "job_counts": job_counts,
        },
        "totals": totals,
        "binaries": binaries,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for failure in failures:
        print("e2e: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
