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
 *    that models the Sim concept below (core::SoftwareAssistedCache
 *    with its warming-specialized access path). Its three passes —
 *    warmed (run), library-building (buildLibrary) and restored
 *    (runCheckpointed) — are one private period walk that differs
 *    only at a window start, in the window's fidelity, in the gap
 *    and where the stream ends inside a gap.
 *
 * The engine is a template over the simulator so src/sim never links
 * against src/core (sac_core links sac_sim; the reverse edge would be
 * a cycle). The concept a simulator must model:
 *
 *   void runDetailed(const trace::Record *recs, std::size_t n,
 *                    const sim::ShadowOutcome *outcomes);
 *   void runWarming(const trace::Record *recs, std::size_t n);
 *   const sim::RunStats &stats() const;
 *   void finish();
 *   config() (classifyMisses, cacheSizeBytes, lineBytes);
 *
 * plus ArchState exportState() const for buildLibrary and
 * void importState(const ArchState &) for runCheckpointed. The
 * simulator owns no miss classifier: a counting walk holds one shadow
 * of sim.config() and feeds it the detailed windows' records only.
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
#include "src/sim/miss_classifier.hh"
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
 * The windowed sampler. Stateless apart from its options; each public
 * call is one independent pass over a source. All three passes (the
 * warmed run(), the library-building buildLibrary() and the restored
 * runCheckpointed()) are the one period walk, walk(), so they visit
 * the same window, skip and warm-up positions by construction.
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
        return walk<Pass::Warmed>(src, sim, nullptr, nullptr);
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
     * start of every detailed window: run()'s walk with the window
     * records replayed in warming mode (architecturally bit-identical
     * to the detailed path). The sim must be freshly constructed. The
     * builder never stops early — it has no statistics to converge on
     * — so the library covers every window any later run() or
     * runCheckpointed() can reach, including adaptive runs that stop
     * sooner. A stream that ends inside a gap adds one trailing
     * live-point. Calls sim.finish() before returning. Requires the
     * extended Sim concept: ArchState exportState() const.
     */
    template <class Sim>
    void
    buildLibrary(trace::TraceSource &src, Sim &sim,
                 CheckpointLibrary &lib) const
    {
        lib.clear();
        walk<Pass::Build>(src, sim, nullptr, &lib);
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
        return walk<Pass::Restored>(src, sim, &lib, nullptr);
    }

  private:
    /** The three passes of walk(). */
    enum class Pass
    {
        Warmed,   //!< detailed windows, warmed gaps (run)
        Build,    //!< warming windows, live-points out (buildLibrary)
        Restored, //!< live-points in, detailed windows, skipped gaps
    };

    /**
     * The period walk: window, skip, warm-up, until the stream ends.
     * The passes differ only at a window start (Build exports a
     * live-point into @p out, Restored imports one from @p in and
     * ends when @p in runs out), in the window's fidelity (Build
     * warms and never samples or stops early), in the gap (Restored
     * skips all of it) and where the stream ends inside a gap (Build
     * exports a trailing live-point, Restored imports it). Every pass
     * ends with sim.finish().
     */
    template <Pass P, class Sim>
    SampleReport
    walk(trace::TraceSource &src, Sim &sim, const CheckpointLibrary *in,
         CheckpointLibrary *out) const
    {
        constexpr bool detailed = P != Pass::Build;
        SampleReport rep;
        rep.confidence = opt_.confidence;

        const std::uint64_t gap = opt_.stride - opt_.window;
        // The restored pass fast-forwards the whole gap: the next
        // live-point replaces its functional warming.
        const std::uint64_t warm =
            P == Pass::Restored ? 0 : std::min(opt_.warmup, gap);
        const std::uint64_t skip = gap - warm;

        std::vector<trace::Record> buf(
            std::min<std::uint64_t>(trace::TraceSource::defaultChunkRecords,
                                    opt_.window));
        // The walk's shadow: gap records never reach it.
        std::optional<MissClassifier> shadow;
        std::vector<ShadowOutcome> outcomes;
        if (detailed && sim.config().classifyMisses) {
            shadow.emplace(shadowClassifierOf(sim.config()));
            outcomes.resize(buf.size());
        }
        // Replay up to @p n records; fewer means the stream ended.
        const auto feed = [&](std::uint64_t n, bool warming) {
            std::uint64_t got = 0;
            while (got < n) {
                const std::size_t k = src.next(
                    buf.data(), static_cast<std::size_t>(
                                    std::min<std::uint64_t>(buf.size(),
                                                            n - got)));
                if (k == 0)
                    break;
                if (warming) {
                    sim.runWarming(buf.data(), k);
                } else {
                    if (shadow)
                        shadow->classify(buf.data(), k, outcomes.data());
                    sim.runDetailed(buf.data(), k,
                                    shadow ? outcomes.data() : nullptr);
                }
                got += k;
            }
            return got;
        };

        RunStats prev; // stats snapshot at the last window boundary
        bool stopped_early = false;
        for (std::size_t window = 0;; ++window) {
            // At the window start: the first live-point is the fresh
            // simulator, which is what makes window 0 identical
            // between the warmed and restored passes.
            if constexpr (P == Pass::Build)
                out->append(sim.exportState());
            if constexpr (P == Pass::Restored) {
                // A library built over the same source covers every
                // window; an exhausted one (defensive) ends the run
                // like an exhausted stream.
                const ArchState *cp = in->checkpointAt(window);
                if (!cp)
                    break;
                sim.importState(*cp);
            }

            // 1. The measurement window.
            const std::uint64_t got = feed(opt_.window, !detailed);
            rep.recordsDetailed += got;
            if (got < opt_.window)
                break;
            if (detailed && sampleWindow(rep, sim.stats(), prev)) {
                // Enough windows: fast-forward the rest.
                rep.recordsSkipped += drainSkip(src);
                stopped_early = true;
                break;
            }

            // 2. The gap: skip its dead part, then warm into the next
            // window.
            const std::uint64_t skipped = skip > 0 ? src.skip(skip) : 0;
            const std::uint64_t warmed =
                skipped == skip ? feed(warm, true) : 0;
            rep.recordsSkipped += skipped;
            rep.recordsWarmed += warmed;
            // Warming moved architectural state but not the
            // statistics; resnapshot so the next window's delta
            // covers exactly its own records.
            prev = sim.stats();
            if (skipped + warmed < gap) {
                // The stream ended inside the gap: the warmed run's
                // state at finish() includes the trailing warm
                // records, so the builder keeps a trailing live-point
                // and the restored pass adopts it before finish().
                if constexpr (P == Pass::Build)
                    out->append(sim.exportState());
                if constexpr (P == Pass::Restored) {
                    if (const ArchState *tail = in->checkpointAt(window + 1))
                        sim.importState(*tail);
                }
                break;
            }
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
     * Add the samples of the complete window that ends at @p cur
     * (@p prev is the snapshot at its start, advanced to @p cur);
     * returns whether the window cap or the adaptive target is met.
     */
    bool sampleWindow(SampleReport &rep, const RunStats &cur,
                      RunStats &prev) const;

    /** Skip the rest of @p src; returns the records discarded. */
    static std::uint64_t drainSkip(trace::TraceSource &src);

    Options opt_;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_SAMPLING_HH
