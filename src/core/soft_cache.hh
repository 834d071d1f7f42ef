/**
 * @file
 * The software-assisted cache simulator — the paper's primary
 * contribution (Section 2) as an executable timing model.
 *
 * One class covers the whole design space of the evaluation:
 *  - a set-associative (default direct-mapped) write-back,
 *    write-allocate main cache with per-line temporal bits;
 *  - an optional auxiliary fully-associative LRU cache that acts as a
 *    victim cache, as the bounce-back cache, and as the prefetch
 *    buffer, depending on the configuration;
 *  - virtual-line fills on spatially tagged misses with pipelined
 *    coherence checks;
 *  - cache bypassing of non-temporal references (baseline);
 *  - progressive software-assisted next-line prefetching;
 *  - a bounded write buffer drained over the shared bus;
 *  - AMAT accounting and three-C miss classification.
 *
 * The model is trace-driven and blocking (a miss stalls the processor
 * until the last physical line arrives), exactly as in the paper.
 */

#ifndef SAC_CORE_SOFT_CACHE_HH
#define SAC_CORE_SOFT_CACHE_HH

#include <optional>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/core/config.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/run_stats.hh"
#include "src/sim/write_buffer.hh"
#include "src/telemetry/event_trace.hh"
#include "src/telemetry/interval.hh"
#include "src/trace/trace.hh"

namespace sac {
namespace telemetry {
class SetProfiler;
} // namespace telemetry

namespace core {

class SoftwareAssistedCache;

/**
 * Post-access audit hook. The simulator calls an attached auditor
 * after every detailed-mode access so it can re-derive structural
 * invariants from the exposed state. Implemented by check::Auditor;
 * the abstract interface lives here so src/core never depends on
 * src/check.
 */
class AccessAuditor
{
  public:
    virtual ~AccessAuditor() = default;

    /** Called after every detailed-mode access. */
    virtual void afterAccess(const SoftwareAssistedCache &cache,
                             const trace::Record &rec) = 0;
};

/** Trace-driven simulator of one cache organization. */
class SoftwareAssistedCache
{
  public:
    /** Build the simulator for configuration @p cfg (validated). */
    explicit SoftwareAssistedCache(Config cfg);

    /**
     * Simulate a whole trace (appends to the current state), then
     * finish(), with a shadow classifier of this config beside the
     * simulator, fed one chunk ahead of the replay.
     */
    void run(const trace::Trace &t);

    /**
     * Replay @p n records (in issue order) at the current fidelity
     * without sealing the run (no finish()); the building block of
     * every caller that streams records itself.
     *
     * The simulator owns no miss classifier: three-C classification
     * reads outcomes[i] for recs[i], the shadow outcome that the
     * caller's sim::MissClassifier of this config's line size and
     * capacity computed over the same record stream. A counting
     * replay of a config with classifyMisses on panics when
     * @p outcomes is null. Outcomes are ignored when classifyMisses
     * is off or after runWarming().
     */
    void replay(const trace::Record *recs, std::size_t n,
                const sim::ShadowOutcome *outcomes)
    {
        runBatch(recs, n, outcomes);
    }

    // --- sim::SampledEngine's Sim concept ------------------------
    //
    // The two calls below are the only fidelity switches; replay()
    // keeps the fidelity the last of them set.

    /**
     * Replay @p n records with full statistics (a detailed window),
     * classifying misses by @p outcomes as replay() does.
     */
    void runDetailed(const trace::Record *recs, std::size_t n,
                     const sim::ShadowOutcome *outcomes)
    {
        warming_ = false;
        runBatch(recs, n, outcomes);
    }

    /**
     * Replay @p n records updating state only (functional warming):
     * every architectural state transition — cache arrays, LRU
     * stamps, temporal and prefetched bits, bounce-backs, write
     * buffer, clocks — is bit-identical to runDetailed() (proven by
     * the warming-state differential tests), but RunStats counters,
     * the three-C miss classification (it reads no shadow outcomes,
     * so a caller feeds its classifier none of these records) and
     * every observer hook compile out of the access path.
     */
    void runWarming(const trace::Record *recs, std::size_t n)
    {
        warming_ = true;
        runBatch(recs, n, nullptr);
    }

    /**
     * Final bookkeeping: drain the write buffer and seal the
     * completion cycle. Idempotent.
     */
    void finish();

    /** Statistics accumulated so far. */
    const sim::RunStats &stats() const { return stats_; }

    /** The active configuration. */
    const Config &config() const { return cfg_; }

    // --- Observers ------------------------------------------------
    //
    // Attaching any observer routes detailed-mode replay through the
    // Observed instantiation of the access path; with none attached
    // the Detailed instantiation runs, which has no observer branch
    // at all. Observers never perturb the simulation: RunStats are
    // bit-identical with and without them. Pass nullptr to detach.

    /**
     * Attach an event tracer: access/fill/swap/bounce/evict/prefetch
     * events are recorded into @p t with cycle stamps.
     */
    void attachTracer(telemetry::EventTracer *t) { tracer_ = t; }

    /** Attach a structural invariant auditor, run after every access. */
    void attachAuditor(AccessAuditor *a) { auditor_ = a; }

    /**
     * Attach a periodic interval recorder: every detailed-mode access
     * ticks it, and finish() flushes the trailing partial interval.
     */
    void attachIntervalRecorder(telemetry::IntervalRecorder *r)
    {
        interval_ = r;
    }

    /**
     * Attach a per-set heat profiler (sized for mainArray().numSets())
     * recording access/miss/eviction/conflict per main-cache set in
     * detailed mode.
     */
    void attachSetProfiler(telemetry::SetProfiler *p)
    {
        setProfiler_ = p;
    }

    // --- Introspection (used by tests and check::Auditor) --------

    /** The main cache array (read-only). */
    const cache::CacheArray &mainArray() const { return main_; }

    /** The aux cache array, or nullptr when the config has none. */
    const cache::CacheArray *auxArray() const
    {
        return aux_ ? &*aux_ : nullptr;
    }

    /** The write buffer (read-only). */
    const sim::WriteBuffer &writeBuffer() const { return writeBuffer_; }

    /** Is the line containing @p addr resident in the main cache? */
    bool mainContains(Addr addr) const;

    /** Is the line containing @p addr resident in the aux cache? */
    bool auxContains(Addr addr) const;

    /** Temporal bit of the main-cache line holding @p addr. */
    bool mainTemporalBit(Addr addr) const;

    /** Temporal bit of the aux-cache line holding @p addr. */
    bool auxTemporalBit(Addr addr) const;

    /** Current issue clock (cycle of the last issued reference). */
    Cycle now() const { return now_; }

    /** Cycle at which the cache becomes free. */
    Cycle cacheFreeAt() const { return cacheFreeAt_; }

    /** Cycle at which the bus becomes free. */
    Cycle busFreeAt() const { return busFreeAt_; }

    /** Cycle at which the processor resumes after the last access. */
    Cycle procReadyAt() const { return procReadyAt_; }

    /** Write-buffer occupancy. */
    std::uint32_t writeBufferOccupancy() const
    {
        return writeBuffer_.occupancy();
    }

    /** Line held by the single-line bypass buffer, if any. */
    std::optional<Addr> bypassBufferLine() const
    {
        if (!bypassBufferValid_)
            return std::nullopt;
        return bypassBufferLine_;
    }

    /** Snapshot of the in-flight progressive prefetch. */
    struct PrefetchProbe
    {
        Addr line;
        std::uint32_t count;
        Cycle readyAt;
    };

    /** The outstanding progressive prefetch, if any. */
    std::optional<PrefetchProbe> pendingPrefetch() const
    {
        if (!pending_.valid)
            return std::nullopt;
        return PrefetchProbe{pending_.line, pending_.count,
                             pending_.readyAt};
    }

    // --- Live-point checkpointing (sim::CheckpointLibrary) -------

    /**
     * Capture the complete architectural state — cache arrays with
     * LRU clocks, write buffer, timing clocks, bypass buffer and the
     * in-flight prefetch: exactly the state check::stateDifference
     * compares, plus the private LRU counters needed to continue
     * replay bit-identically. Statistics are not included (they only
     * advance during detailed windows and are reproduced by replay).
     */
    sim::ArchState exportState() const;

    /**
     * Restore a state captured by exportState() on an identically
     * configured simulator. RunStats are left untouched (as is the
     * caller's shadow classifier, which is not simulator state), and
     * the run is unsealed so finish() runs again.
     */
    void importState(const sim::ArchState &s);

  private:
    /** A main-cache slot filled by the in-flight miss. */
    struct FillTarget
    {
        std::uint32_t set;
        std::uint32_t way;
    };

    /**
     * Fidelity of an access-path instantiation. Warming performs the
     * same architectural state transitions as Detailed but compiles
     * out every stats counter and the miss classification (it reads
     * no shadow outcomes). Observed is
     * Detailed plus the observer hooks (tracer, auditor, interval
     * recorder, set profiler); only it contains them.
     */
    enum class Fidelity
    {
        Warming,
        Detailed,
        Observed,
    };

    /** Does fidelity @p f advance RunStats? */
    static constexpr bool counts(Fidelity f)
    {
        return f != Fidelity::Warming;
    }

    /** Does fidelity @p f call the attached observers? */
    static constexpr bool observes(Fidelity f)
    {
        return f == Fidelity::Observed;
    }

    /**
     * The per-reference simulation at fidelity @p F. Every feature
     * (aux buffer, virtual lines, prefetch, bypass) is a runtime test
     * of the configuration, so one instantiation per fidelity serves
     * every configuration.
     */
    template <Fidelity F>
    void accessTmpl(const trace::Record &rec);

    /**
     * Replay @p n records through accessTmpl<F>, then (Observed only)
     * run the auditor and interval hooks per record. A counting
     * fidelity classifies misses by @p outcomes when non-null.
     */
    template <Fidelity F>
    void runBatchTmpl(const trace::Record *recs, std::size_t n,
                      const sim::ShadowOutcome *outcomes);

    /**
     * Replay @p n records at the fidelity the current state calls for:
     * Warming when warming_ is set, else Observed when any
     * observer is attached, else Detailed; a counting replay of a
     * classifying config must be given @p outcomes (see replay()).
     */
    void runBatch(const trace::Record *recs, std::size_t n,
                  const sim::ShadowOutcome *outcomes);

    /** Is any observer attached? */
    bool observed() const
    {
        return tracer_ || auditor_ || interval_ || setProfiler_;
    }

    /** Record one event into the attached tracer (Observed only). */
    template <Fidelity F>
    void traceEvent(telemetry::EventKind kind, Cycle cycle, Addr addr,
                    std::uint32_t arg)
    {
        if constexpr (observes(F)) {
            if (tracer_)
                tracer_->record(kind, cycle, addr, arg);
        }
    }

    // The handlers below take the access's line address @p line and
    // main-cache set @p set as accessTmpl computed them, and a hit
    // handler the slot it hit, so no handler derives them again.

    /** Serve a hit in main-cache slot @p l. */
    template <Fidelity F>
    void handleMainHit(const trace::Record &rec,
                       cache::CacheArray::LineRef l, Cycle start);

    /** Serve a hit in slot @p a of aux set @p aux_set. */
    template <Fidelity F>
    void handleAuxHit(const trace::Record &rec, Addr line,
                      std::uint32_t set, std::uint32_t aux_set,
                      cache::CacheArray::LineRef a, Cycle start);

    /** Serve a bypassed non-temporal reference. */
    template <Fidelity F>
    void handleBypass(const trace::Record &rec, Addr line, Cycle start);

    /** Serve a demand miss (possibly a virtual-line fill). */
    template <Fidelity F>
    void handleMiss(const trace::Record &rec, Addr line, std::uint32_t set,
                    Cycle start);

    /**
     * Install @p line_addr into main-cache set @p set, moving the
     * victim to the aux cache or the write buffer. Returns the filled
     * slot.
     * @param transfer_cost accumulates hidden transfer cycles
     * @param fill_targets slots already filled by this miss
     */
    template <Fidelity F>
    cache::CacheArray::LineRef
    insertIntoMain(Addr line_addr, std::uint32_t set, Cycle &transfer_cost,
                   std::vector<FillTarget> &fill_targets);

    /**
     * Move a main-cache victim into the aux cache, bouncing the aux
     * victim back to the main cache when the bounce-back mechanism is
     * active and its temporal bit is set.
     */
    template <Fidelity F>
    void victimToAux(const cache::LineState &victim, Cycle &transfer_cost,
                     const std::vector<FillTarget> &fill_targets);

    /** Bounce an aux victim back into the main cache (Section 2.2). */
    template <Fidelity F>
    void bounceBack(const cache::LineState &victim, Cycle &transfer_cost,
                    const std::vector<FillTarget> &fill_targets);

    /** Queue a line writeback, forcing a drain when the buffer is full. */
    template <Fidelity F>
    void pushWriteback(std::uint32_t bytes, Cycle &transfer_cost);

    /** Drain the whole write buffer over the bus (post-miss). */
    template <Fidelity F>
    void drainWriteBuffer();

    /** Issue a progressive next-line prefetch for @p pf_line. */
    template <Fidelity F>
    void issuePrefetch(Addr pf_line);

    /** Install the pending prefetched line into the aux cache. */
    template <Fidelity F>
    void installPendingPrefetch();

    /** Count a demand miss in the class of the current outcome. */
    template <Fidelity F>
    void classify(Addr addr);

    /** Update the per-line temporal bit from the instruction tag. */
    static void applyTemporalTag(cache::CacheArray::LineRef line,
                                 bool tagged,
                                 bool temporal_bits_enabled);

    /** Finish one access: accounting and cache-busy update. */
    template <Fidelity F>
    void complete(Cycle completion, Cycle lock_until);

    /** Replacement policy for main-cache fills. */
    cache::ReplacementPolicy mainPolicy() const;

    /** Bus cycles to move @p bytes; a whole line takes the constant. */
    Cycle transferCyclesOf(std::uint64_t bytes) const
    {
        return bytes == cfg_.lineBytes ? lineTransferCycles_
                                       : cfg_.timing.transferCycles(bytes);
    }

    Config cfg_;
    cache::CacheArray main_;
    std::optional<cache::CacheArray> aux_;
    sim::WriteBuffer writeBuffer_;
    sim::RunStats stats_;

    // The paper's n*LS/wb terms that are fixed per config, computed at
    // construction so the access path does not divide by the bus
    // width: one line's transfer, a one-line demand miss (tlat + LS/wb)
    // and a progressive prefetch (tlat + degree*LS/wb).
    Cycle lineTransferCycles_;
    Cycle lineMissPenalty_;
    Cycle prefetchPenalty_;

    /** Does the current batch classify misses? */
    bool classifying_ = false;
    /** Shadow outcome of the record being simulated. */
    sim::ShadowOutcome outcome_ = sim::ShadowOutcome::ShadowHit;

    Cycle now_ = 0;
    /** Completion cycle of the previous access (processor resumes). */
    Cycle procReadyAt_ = 1;
    Cycle cacheFreeAt_ = 0;
    Cycle busFreeAt_ = 0;

    // Single-line bypass buffer (BypassMode::NonTemporalBuffered).
    Addr bypassBufferLine_ = 0;
    bool bypassBufferValid_ = false;

    // One outstanding progressive prefetch (Section 4.4).
    struct PendingPrefetch
    {
        Addr line = 0;
        std::uint32_t count = 1;
        Cycle readyAt = 0;
        bool valid = false;
    };
    PendingPrefetch pending_;
    bool finished_ = false;

    // Per-miss scratch, members so the hot path does not allocate.
    std::vector<Addr> fetchScratch_;
    std::vector<FillTarget> fillScratch_;

    /** Warming fidelity, set by runWarming() and runDetailed(). */
    bool warming_ = false;

    /** Event sink; null = tracing off (the common, fast case). */
    telemetry::EventTracer *tracer_ = nullptr;

    /** Invariant auditor; null = auditing off (the common case). */
    AccessAuditor *auditor_ = nullptr;

    /** Interval snapshotter; null = interval stats off (the common case). */
    telemetry::IntervalRecorder *interval_ = nullptr;

    /** Per-set heat profiler; null = heat profiling off. */
    telemetry::SetProfiler *setProfiler_ = nullptr;
};

/** Simulate @p t under @p cfg (run()) and return the statistics. */
sim::RunStats simulateTrace(const trace::Trace &t, const Config &cfg);

} // namespace core
} // namespace sac

#endif // SAC_CORE_SOFT_CACHE_HH
