/**
 * @file
 * Shared infrastructure for the figure-reproduction binaries: the
 * process-wide runner (each benchmark trace is generated once per
 * process), the seeded paper workloads, config x benchmark sweeps
 * expressed as harness::SweepRequest, and uniform headers so
 * EXPERIMENTS.md can quote the output verbatim.
 */

#ifndef SAC_BENCH_BENCH_COMMON_HH
#define SAC_BENCH_BENCH_COMMON_HH

#include <functional>
#include <string>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/bench_options.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/util/table.hh"
#include "src/workloads/workloads.hh"

namespace sac {
namespace bench {

/** A metric extracted from a simulation run. */
using Metric = std::function<double(const sim::RunStats &)>;

/**
 * Parse the shared bench command line; call first in every main().
 * Recognized flags (see harness::BenchOptions): `--jobs N` (worker
 * threads for matrix sweeps; default: all hardware threads, `--jobs
 * 1` forces the serial path), `--emit-json DIR` (write one telemetry
 * run manifest per sweep cell under DIR; see DESIGN.md §6),
 * `--preset NAME` (a core::presets() configuration), `--trace-seed
 * N` (timing seed of every generated trace), `--trace-chunk N`
 * (records per chunk in streamed replay), `--sample` with its
 * tuning flags `--sample-window/-stride/-warmup/-ci/-error` (estimate
 * suite tables with the windowed sampling engine; cells then read
 * "estimate ±half" — see DESIGN.md §10), `--interval N` and
 * `--heatmap` (time-resolved instrumentation of every manifest cell:
 * interval JSONL series and per-set heat profiles, rendered by
 * tools/sac_report.py — see DESIGN.md §13; requires --emit-json).
 * Tables are byte-identical at any job count.
 */
void initBench(int argc, const char *const *argv);

/** All shared options configured by initBench() (or defaults). */
const harness::BenchOptions &options();

/** The AMAT metric (the paper's main y-axis). */
double amatOf(const sim::RunStats &s);

/** The miss-ratio metric (Figure 7b). */
double missRatioOf(const sim::RunStats &s);

/** The memory-traffic metric in words per reference (Figure 7a). */
double wordsOf(const sim::RunStats &s);

/**
 * The nine paper benchmarks as workloads, generated with the
 * --trace-seed timing seed.
 */
std::vector<harness::Workload> suiteWorkloads();

/**
 * The trace of a registered paper benchmark (--trace-seed), generated
 * once per process and cached.
 */
const trace::Trace &benchmarkTrace(const std::string &name);

/**
 * Resolve registry preset keys into configurations, in order — the
 * replacement for the per-bench hand-maintained config lists.
 */
std::vector<core::Config>
presetConfigs(const std::vector<std::string> &keys);

/**
 * Build the classic paper table: one row per benchmark of the main
 * suite, one column per configuration, cells = metric(config run).
 * Under --sample the cells are sampled estimates; an unnamed metric
 * (this overload) then renders without a confidence interval.
 */
util::Table suiteTable(const std::vector<core::Config> &configs,
                       const Metric &metric, int decimals = 3);

/**
 * Like the above, for a named harness metric (harness::amatMetric()
 * and friends). Under --sample the three sampled metrics (AMAT, miss
 * ratio, words/ref) render as "estimate ±half" at the configured
 * confidence.
 */
util::Table suiteTable(const std::vector<core::Config> &configs,
                       const harness::Metric &metric);

/**
 * Replay every (workload, config) cell exactly — whatever --sample
 * says — and emit their manifests under --emit-json (each cell once
 * per process): the sweep of sections that derive their columns from
 * the cells' RunStats. Runs on the process-wide runner at --jobs
 * workers unless @p runner is given; sections with ad-hoc traces pass
 * a row-scoped runner, so only one row's traces are alive at a time,
 * and its cells replay serially on the calling thread.
 */
harness::SweepResult
exactSweep(const std::vector<harness::Workload> &workloads,
           const std::vector<core::Config> &configs,
           harness::Runner *runner = nullptr);

/** Print a figure banner with the paper reference. */
void printBanner(const std::string &figure, const std::string &what);

} // namespace bench
} // namespace sac

#endif // SAC_BENCH_BENCH_COMMON_HH
