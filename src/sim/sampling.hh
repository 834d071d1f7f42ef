/**
 * @file
 * SMARTS-style statistical sampling of trace simulations: instead of
 * simulating every record at full fidelity, the sampled engine
 * measures U detailed windows of W records at a stride of S records,
 * functionally warms the cache state for a bounded number of records
 * before each window, and fast-forwards (skips) the rest. Per-window
 * miss ratio / AMAT / traffic samples feed a running mean/variance
 * from which CLT confidence intervals are derived, so every estimate
 * is reported together with its own +/- error bound.
 *
 * The pieces:
 *  - SampleStats: Welford-accumulated scalar samples with
 *    confidence-interval math (normal quantiles, half-width,
 *    relative error);
 *  - SamplingOptions: window/stride/warmup geometry plus confidence
 *    and an optional adaptive stopping rule, with Config-style
 *    validationError();
 *  - SampleReport: the per-metric SampleStats, the record accounting
 *    and the exact-fallback flag of one sampled run;
 *  - SampledEngine: drives any trace::TraceSource through a simulator
 *    that models the DetailSim concept (core::SoftwareAssistedCache
 *    with its warming-specialized access path).
 *
 * The engine is a template over the simulator so src/sim never links
 * against src/core (sac_core links sac_sim; the reverse edge would be
 * a cycle). The concept a simulator must model:
 *
 *   void runDetailed(const trace::Record *recs, std::size_t n);
 *   void runWarming(const trace::Record *recs, std::size_t n);
 *   const sim::RunStats &stats() const;
 *   void finish();
 *
 * Warming must update all architectural state (arrays, LRU, temporal
 * bits, write buffer, clocks) exactly as the detailed path does —
 * bit-for-bit, proven by the warming-state differential tests — while
 * statistics collection is compiled out.
 */

#ifndef SAC_SIM_SAMPLING_HH
#define SAC_SIM_SAMPLING_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/checkpoint.hh"
#include "src/sim/run_stats.hh"
#include "src/trace/record.hh"
#include "src/trace/trace_source.hh"
#include "src/util/types.hh"

namespace sac {
namespace sim {

/**
 * Two-sided normal quantile for a confidence level in (0, 1): the z
 * with P(|N(0,1)| <= z) = confidence (1.96 for 95%, 2.576 for 99%).
 */
double confidenceZ(double confidence);

/** Format "mean +/-half" with @p decimals digits (table cells). */
std::string formatWithCi(double mean, double half_width, int decimals);

/**
 * Running scalar sample accumulator (Welford) with CLT interval math.
 * One instance per sampled metric; samples are per-window means of
 * equal-sized windows, so their average equals the aggregate ratio.
 */
class SampleStats
{
  public:
    /** Record one per-window sample. */
    void add(double x);

    /** Number of windows sampled. */
    std::uint64_t count() const { return n_; }

    /** Sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance (0 when fewer than 2 samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /**
     * CLT half-width of the two-sided confidence interval:
     * z * sqrt(variance / n). Infinite when fewer than 2 samples
     * (one window says nothing about its own error).
     */
    double halfWidth(double confidence) const;

    /**
     * Half-width relative to |mean|: the adaptive stopping metric.
     * Infinite when the half-width is unknown; 0 when the half-width
     * is 0 (a constant sequence estimates itself exactly). A zero
     * mean with nonzero half-width is infinite.
     */
    double relativeError(double confidence) const;

    /**
     * Bit-exact accumulator equality (count, mean, m2) — the
     * differential tests' definition of "same samples in the same
     * order".
     */
    bool operator==(const SampleStats &) const = default;

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0; //!< sum of squared deviations (Welford)
};

/** Geometry and stopping rule of one sampled run. */
struct SamplingOptions
{
    /** Detailed records per measurement window. */
    std::uint64_t window = 1024;

    /** Records from one window start to the next (period). */
    std::uint64_t stride = 16384;

    /**
     * Records functionally warmed immediately before each window;
     * the first stride - window - warmup records of each period are
     * skipped outright (fast-forward). Clamped to stride - window, so
     * any value >= that (e.g. the stride itself) disables skipping
     * entirely: pure SMARTS functional warming.
     */
    std::uint64_t warmup = 4096;

    /** Two-sided confidence level of the reported intervals. */
    double confidence = 0.95;

    /**
     * Adaptive mode: when > 0, stop sampling (and skip the rest of
     * the stream) once the miss-ratio estimate's relative error at
     * the configured confidence reaches this target and at least
     * minWindows windows were measured.
     */
    double targetRelativeError = 0.0;

    /** Windows required before the adaptive rule may stop. */
    std::uint64_t minWindows = 8;

    /** Hard cap on measured windows; 0 = unlimited. */
    std::uint64_t maxWindows = 0;

    /**
     * The first constraint this geometry violates, or nullopt when it
     * is valid (the Config::validationError() convention).
     */
    std::optional<std::string> validationError() const;

    /** fatal() on an invalid geometry (mirrors Config::validate). */
    void validate() const;
};

/** Everything one sampled run produced. */
struct SampleReport
{
    /** Per-window miss-ratio samples. */
    SampleStats missRatio;
    /** Per-window AMAT (cycles per access) samples. */
    SampleStats amat;
    /** Per-window memory-traffic samples (4-byte words / access). */
    SampleStats wordsPerAccess;

    /** Confidence level the intervals below are quoted at. */
    double confidence = 0.95;

    /** Complete measurement windows taken. */
    std::uint64_t windows = 0;

    // Record accounting: total = detailed + warmed + skipped.
    std::uint64_t recordsTotal = 0;
    std::uint64_t recordsDetailed = 0;
    std::uint64_t recordsWarmed = 0;
    std::uint64_t recordsSkipped = 0;

    /**
     * True when every record was simulated at full detail (nothing
     * warmed or skipped): the estimates are exact, not statistical,
     * and their half-widths are 0. Short streams fall back to this.
     */
    bool exact = false;

    /**
     * Cumulative simulator statistics over the detailed records (the
     * full-run statistics when exact).
     */
    RunStats detailed;

    /** Point estimate of the miss ratio. */
    double missRatioEstimate() const
    {
        return exact ? detailed.missRatio() : missRatio.mean();
    }

    /** Point estimate of the AMAT. */
    double amatEstimate() const
    {
        return exact ? detailed.amat() : amat.mean();
    }

    /** Point estimate of words fetched per access. */
    double wordsPerAccessEstimate() const
    {
        return exact ? detailed.wordsFetchedPerAccess()
                     : wordsPerAccess.mean();
    }

    /** Half-width of @p s at the report's confidence (0 when exact). */
    double halfWidthOf(const SampleStats &s) const
    {
        return exact ? 0.0 : s.halfWidth(confidence);
    }

    /** Bit-exact report equality (every field, RunStats included). */
    bool operator==(const SampleReport &) const = default;
};

/**
 * The windowed sampler. Stateless apart from its options; run() may
 * be called any number of times (each call is one independent sampled
 * replay).
 */
class SampledEngine
{
  public:
    using Options = SamplingOptions;

    /** @param opt validated on construction (fatal on bad geometry) */
    explicit SampledEngine(Options opt) : opt_(opt) { opt_.validate(); }

    const Options &options() const { return opt_; }

    /**
     * Drain @p src through @p sim: each period of opt.stride records
     * starts with opt.window detailed records (one sample), then
     * skips, then functionally warms opt.warmup records leading into
     * the next window. Ends when the source does (or early, in
     * adaptive mode, once the target error is met — the remainder of
     * the stream is then skipped without simulation). Calls
     * sim.finish() before returning.
     */
    template <class Sim>
    SampleReport
    run(trace::TraceSource &src, Sim &sim) const
    {
        SampleReport rep;
        rep.confidence = opt_.confidence;

        const std::uint64_t gap = opt_.stride - opt_.window;
        const std::uint64_t warm = std::min(opt_.warmup, gap);
        const std::uint64_t skip = gap - warm;

        std::vector<trace::Record> buf(
            std::min<std::uint64_t>(trace::TraceSource::defaultChunkRecords,
                                    opt_.window));
        RunStats prev; // stats snapshot at the last window boundary
        bool more = true;
        bool stopped_early = false;

        while (more) {
            // 1. Detailed measurement window.
            std::uint64_t got = 0;
            while (got < opt_.window) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buf.size(),
                                            opt_.window - got));
                const std::size_t n = src.next(buf.data(), want);
                if (n == 0) {
                    more = false;
                    break;
                }
                sim.runDetailed(buf.data(), n);
                got += n;
            }
            rep.recordsDetailed += got;
            if (got == opt_.window) {
                // One complete window: sample the stats delta.
                const RunStats &cur = sim.stats();
                const double acc = static_cast<double>(
                    cur.accesses - prev.accesses);
                const double misses = static_cast<double>(
                    cur.misses - prev.misses);
                const double cycles =
                    cur.totalAccessCycles - prev.totalAccessCycles;
                const double words =
                    static_cast<double>(cur.bytesFetched -
                                        prev.bytesFetched) /
                    wordBytes;
                rep.missRatio.add(misses / acc);
                rep.amat.add(cycles / acc);
                rep.wordsPerAccess.add(words / acc);
                ++rep.windows;
                prev = cur;

                const bool capped = opt_.maxWindows > 0 &&
                                    rep.windows >= opt_.maxWindows;
                const bool converged =
                    opt_.targetRelativeError > 0.0 &&
                    rep.windows >= opt_.minWindows &&
                    rep.missRatio.relativeError(opt_.confidence) <=
                        opt_.targetRelativeError;
                if (more && (capped || converged)) {
                    // Enough windows: fast-forward the rest.
                    rep.recordsSkipped += drainSkip(src);
                    stopped_early = true;
                    break;
                }
            }
            if (!more)
                break;

            // 2. Fast-forward the dead part of the period.
            if (skip > 0) {
                const std::uint64_t s = src.skip(skip);
                rep.recordsSkipped += s;
                if (s < skip)
                    more = false;
            }

            // 3. Functional warming into the next window.
            std::uint64_t warmed = 0;
            while (more && warmed < warm) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buf.size(), warm - warmed));
                const std::size_t n = src.next(buf.data(), want);
                if (n == 0) {
                    more = false;
                    break;
                }
                sim.runWarming(buf.data(), n);
                warmed += n;
            }
            rep.recordsWarmed += warmed;
            // The warmed records moved architectural state but not
            // the statistics; resnapshot so the next window's delta
            // covers exactly its own records.
            prev = sim.stats();
        }

        sim.finish();
        rep.recordsTotal = rep.recordsDetailed + rep.recordsWarmed +
                           rep.recordsSkipped;
        rep.exact = !stopped_early && rep.recordsWarmed == 0 &&
                    rep.recordsSkipped == 0;
        rep.detailed = sim.stats();
        return rep;
    }

    /**
     * True when this geometry benefits from a checkpoint library: a
     * gap of warm/skip records exists between windows. When stride ==
     * window every record is simulated in full detail anyway (the
     * exact fallback), so there is no warming to persist and callers
     * should run() directly.
     */
    bool checkpointable() const { return opt_.stride > opt_.window; }

    /**
     * One warming pass that fills @p lib with the live-point at the
     * start of every detailed window, mirroring run()'s replay/skip
     * pattern exactly: window-position records and warmup records are
     * replayed in warming mode (architecturally bit-identical to the
     * detailed path), skip-position records are skipped. The sim must
     * be freshly constructed. The builder never stops early — it has
     * no statistics to converge on — so the library covers every
     * window any later run() or runCheckpointed() can reach,
     * including adaptive runs that stop sooner. Requires the extended
     * Sim concept: ArchState exportState() const.
     */
    template <class Sim>
    void
    buildLibrary(trace::TraceSource &src, Sim &sim,
                 CheckpointLibrary &lib) const
    {
        lib.clear();
        const std::uint64_t gap = opt_.stride - opt_.window;
        const std::uint64_t warm = std::min(opt_.warmup, gap);
        const std::uint64_t skip = gap - warm;

        std::vector<trace::Record> buf(
            std::min<std::uint64_t>(trace::TraceSource::defaultChunkRecords,
                                    opt_.window));
        bool more = true;
        while (more) {
            // Live-point at this window's start (the first one is the
            // fresh simulator; restoring it is what makes window 0
            // identical between the warmed and checkpointed runs).
            lib.append(sim.exportState());

            // 1. The window position, replayed in warming mode.
            std::uint64_t got = 0;
            while (got < opt_.window) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buf.size(),
                                            opt_.window - got));
                const std::size_t n = src.next(buf.data(), want);
                if (n == 0) {
                    more = false;
                    break;
                }
                sim.runWarming(buf.data(), n);
                got += n;
            }
            if (!more)
                break;

            // 2. The dead part of the period never touches state.
            if (skip > 0) {
                const std::uint64_t s = src.skip(skip);
                if (s < skip)
                    more = false;
            }

            // 3. Functional warming into the next window.
            std::uint64_t warmed = 0;
            while (more && warmed < warm) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buf.size(), warm - warmed));
                const std::size_t n = src.next(buf.data(), want);
                if (n == 0) {
                    more = false;
                    break;
                }
                sim.runWarming(buf.data(), n);
                warmed += n;
            }
            if (!more) {
                // Stream ended inside the gap: the warmed run's state
                // at finish() includes these trailing warm records,
                // which the checkpointed run fast-forwards past. A
                // trailing live-point closes that hole (restored by
                // runCheckpointed when its gap skip comes up short).
                lib.append(sim.exportState());
                break;
            }
        }
    }

    /**
     * run() with the functional warming replaced by live-point
     * restores: before detailed window k the simulator's architectural
     * state is overwritten with checkpoint k, and the whole inter-
     * window gap (skip + warmup) is fast-forwarded without touching
     * the simulator. Statistics advance only inside detailed windows
     * in both paths, so the resulting RunStats (and every per-window
     * sample) are bit-identical to run() over the same source — at
     * warming cost zero. @p lib must have loaded as Hit for the
     * matching key (or been built by buildLibrary over the same
     * source). Requires the extended Sim concept:
     * void importState(const ArchState &).
     */
    template <class Sim>
    SampleReport
    runCheckpointed(trace::TraceSource &src, Sim &sim,
                    const CheckpointLibrary &lib) const
    {
        SampleReport rep;
        rep.confidence = opt_.confidence;

        const std::uint64_t gap = opt_.stride - opt_.window;

        std::vector<trace::Record> buf(
            std::min<std::uint64_t>(trace::TraceSource::defaultChunkRecords,
                                    opt_.window));
        RunStats prev; // stats snapshot at the last window boundary
        bool more = true;
        bool stopped_early = false;
        std::size_t window_index = 0;

        while (more) {
            // Restore the live-point for this window. buildLibrary
            // appends one checkpoint per window it enters, so a
            // matching library always covers us; an exhausted library
            // (defensive) ends the run like an exhausted stream.
            const ArchState *cp = lib.checkpointAt(window_index);
            if (!cp)
                break;
            sim.importState(*cp);
            ++window_index;

            // 1. Detailed measurement window (identical to run()).
            std::uint64_t got = 0;
            while (got < opt_.window) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buf.size(),
                                            opt_.window - got));
                const std::size_t n = src.next(buf.data(), want);
                if (n == 0) {
                    more = false;
                    break;
                }
                sim.runDetailed(buf.data(), n);
                got += n;
            }
            rep.recordsDetailed += got;
            if (got == opt_.window) {
                const RunStats &cur = sim.stats();
                const double acc = static_cast<double>(
                    cur.accesses - prev.accesses);
                const double misses = static_cast<double>(
                    cur.misses - prev.misses);
                const double cycles =
                    cur.totalAccessCycles - prev.totalAccessCycles;
                const double words =
                    static_cast<double>(cur.bytesFetched -
                                        prev.bytesFetched) /
                    wordBytes;
                rep.missRatio.add(misses / acc);
                rep.amat.add(cycles / acc);
                rep.wordsPerAccess.add(words / acc);
                ++rep.windows;
                prev = cur;

                const bool capped = opt_.maxWindows > 0 &&
                                    rep.windows >= opt_.maxWindows;
                const bool converged =
                    opt_.targetRelativeError > 0.0 &&
                    rep.windows >= opt_.minWindows &&
                    rep.missRatio.relativeError(opt_.confidence) <=
                        opt_.targetRelativeError;
                if (more && (capped || converged)) {
                    rep.recordsSkipped += drainSkip(src);
                    stopped_early = true;
                    break;
                }
            }
            if (!more)
                break;

            // 2. Fast-forward the whole gap: the next live-point
            // replaces functional warming, so warm-position records
            // are skipped too (recordsWarmed stays 0).
            if (gap > 0) {
                const std::uint64_t s = src.skip(gap);
                rep.recordsSkipped += s;
                if (s < gap) {
                    more = false;
                    // The stream ended inside the gap: adopt the
                    // builder's trailing live-point so finish() seals
                    // the same architectural state (write buffer,
                    // clocks) the warmed run reached through the
                    // trailing warm records.
                    if (const ArchState *tail =
                            lib.checkpointAt(window_index))
                        sim.importState(*tail);
                }
            }
            prev = sim.stats();
        }

        sim.finish();
        rep.recordsTotal = rep.recordsDetailed + rep.recordsWarmed +
                           rep.recordsSkipped;
        rep.exact = !stopped_early && rep.recordsWarmed == 0 &&
                    rep.recordsSkipped == 0;
        rep.detailed = sim.stats();
        return rep;
    }

  private:
    /** Skip the rest of @p src; returns the records discarded. */
    static std::uint64_t drainSkip(trace::TraceSource &src);

    Options opt_;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_SAMPLING_HH
