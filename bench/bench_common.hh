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
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/tag_transform.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/bench_options.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/util/distribution.hh"
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
 * N` (timing seed of every generated trace), `--sample` with its
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
 * once per process and cached. The first call builds all nine suite
 * traces on --jobs threads.
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
 * A workload over the tagged trace of the program @p build returns
 * (workloads::makeTaggedTrace, or makeTaggedTraceWithTiming under
 * @p deltas), timed with the --trace-seed seed. It sets stream, so a
 * sweep over it generates the records chunk by chunk and never holds
 * the whole trace.
 */
harness::Workload
programWorkload(std::string name,
                std::function<loopnest::Program()> build,
                std::optional<util::DiscreteDistribution> deltas = {});

/**
 * The workload `<base>-<tag>`: benchmarkTrace(@p base), which stays
 * resident, rewritten by the mutator @p mutator makes from it. Its
 * stream applies a fresh mutator per traversal, so a sweep never
 * materializes the variant; its build is the whole-trace map, and
 * its records the base trace's length.
 */
harness::Workload
tagVariant(const std::string &base, const std::string &tag,
           std::function<analysis::TagMutator(const trace::Trace &)>
               mutator);

/**
 * Replay every (workload, config) cell exactly — whatever --sample
 * says — on the process-wide runner at --jobs workers, and emit
 * their manifests under --emit-json (each cell once per process):
 * the sweep of sections that derive their columns from the cells'
 * RunStats, tag variants (tagVariant()) included.
 */
harness::SweepResult
exactSweep(const std::vector<harness::Workload> &workloads,
           const std::vector<core::Config> &configs);

/** Print a figure banner with the paper reference. */
void printBanner(const std::string &figure, const std::string &what);

} // namespace bench
} // namespace sac

#endif // SAC_BENCH_BENCH_COMMON_HH
