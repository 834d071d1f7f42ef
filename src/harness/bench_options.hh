/**
 * @file
 * The command-line options shared by every bench binary and the
 * example CLIs. Until this existed each bench re-parsed --jobs and
 * --emit-json by hand and sacsim kept its own preset name table; now
 * one parse() owns the shared flags and --preset resolves through
 * core::presets(), so a new preset is automatically accepted
 * everywhere.
 */

#ifndef SAC_HARNESS_BENCH_OPTIONS_HH
#define SAC_HARNESS_BENCH_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "src/core/config.hh"
#include "src/sim/sampling.hh"
#include "src/trace/trace_source.hh"

namespace sac {
namespace util {
class Args;
} // namespace util

namespace harness {

/** Parsed shared bench flags. */
struct BenchOptions
{
    /** --jobs N: sweep worker threads (default: hardware threads). */
    unsigned jobs = 0;

    /** --emit-json DIR: manifest output directory; empty = off. */
    std::string emitJsonDir;

    /** --preset NAME: a registry configuration, when given. */
    std::optional<core::Config> preset;

    /** The --preset key as typed (empty when absent). */
    std::string presetName;

    /** --trace-chunk N: records per chunk in streamed replay. */
    std::size_t traceChunk = trace::TraceSource::defaultChunkRecords;

    /** --trace-seed N: timing seed for generated traces. */
    std::uint64_t traceSeed = 0x7ac3ull;

    /** --sample: estimate figures with the windowed sampling engine. */
    bool sample = false;

    /**
     * Sampling geometry and confidence, tuned by --sample-window,
     * --sample-stride, --sample-warmup, --sample-ci (0.95, or 95 as
     * a percentage) and --sample-error (adaptive target relative
     * error; 0 disables).
     */
    sim::SamplingOptions sampling;

    /** Was any --sample-* tuning flag given on the command line? */
    bool sampleTuningGiven = false;

    /**
     * --checkpoint-dir DIR: root of the live-point checkpoint library
     * (sim::CheckpointLibrary). Sampled sweeps load `.saclp` files
     * from it and skip functional warming; misses warm once and write
     * the library for every later run. Empty = off. Requires
     * --sample.
     */
    std::string checkpointDir;

    /**
     * --checkpoint-rebuild: ignore any existing library and force a
     * warm-and-rewrite (e.g. after deliberately regenerating traces
     * in place). Requires --checkpoint-dir.
     */
    bool checkpointRebuild = false;

    /**
     * --interval N: record an interval-stats snapshot every N trace
     * records and write a sibling `<manifest>.intervals.jsonl` next
     * to each emitted cell manifest. 0 = off. Requires --emit-json.
     */
    std::uint64_t interval = 0;

    /**
     * --heatmap: embed the per-set heat profile ("profile" block) in
     * each emitted cell manifest. Requires --emit-json.
     */
    bool heatmap = false;

    /**
     * The first constraint the parsed flag combination violates, or
     * nullopt when consistent (the Config::validationError()
     * convention): tuning flags without --sample are rejected, as is
     * an impossible geometry (e.g. --sample-stride below
     * --sample-window). parse() exits with status 2 on any of these;
     * the testable core is exposed separately.
     */
    std::optional<std::string> validationError() const;

    /**
     * Extract the shared flags from an already-parsed command line.
     * Prints a diagnostic to stderr and exits with status 2 on a bad
     * value (wrong type, unknown preset, missing directory,
     * contradictory sampling flags) — bench binaries have no recovery
     * path from a bad command line.
     */
    static BenchOptions parse(const util::Args &args);

    /** Convenience: parse argv, then the shared flags. */
    static BenchOptions parse(int argc, const char *const *argv);
};

} // namespace harness
} // namespace sac

#endif // SAC_HARNESS_BENCH_OPTIONS_HH
