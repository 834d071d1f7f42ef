/**
 * @file
 * Statistics of one simulation run: the counters behind every metric
 * the paper reports (AMAT, miss ratio, hit repartition, memory
 * traffic, miss classes, mechanism-specific event counts).
 */

#ifndef SAC_SIM_RUN_STATS_HH
#define SAC_SIM_RUN_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/util/types.hh"

namespace sac {

namespace telemetry {
class CounterRegistry;
}

namespace sim {

/** All counters accumulated during one trace simulation. */
struct RunStats
{
    // Access counts.
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    // Hit/miss breakdown.
    std::uint64_t mainHits = 0;
    std::uint64_t auxHits = 0;          //!< bounce-back / victim hits
    std::uint64_t auxPrefetchHits = 0;  //!< aux hits on prefetched lines
    std::uint64_t misses = 0;           //!< demand fetches from memory
    std::uint64_t bypasses = 0;         //!< accesses served by bypass
    std::uint64_t bypassBufferHits = 0;

    // Miss classes (demand misses only).
    std::uint64_t compulsoryMisses = 0;
    std::uint64_t capacityMisses = 0;
    std::uint64_t conflictMisses = 0;

    // Traffic.
    std::uint64_t linesFetched = 0;     //!< physical lines from memory
    std::uint64_t bytesFetched = 0;     //!< demand + prefetch fetch bytes
    std::uint64_t bytesWrittenBack = 0; //!< write-buffer drain bytes

    // Mechanism events.
    std::uint64_t virtualLineFills = 0; //!< misses that fetched > 1 line
    std::uint64_t extraLinesFetched = 0;//!< lines beyond the missed one
    std::uint64_t swaps = 0;            //!< aux hit swaps
    std::uint64_t bounces = 0;          //!< temporal bounce-backs done
    std::uint64_t bouncesCancelled = 0; //!< aimed at a miss fill target
    std::uint64_t bouncesAborted = 0;   //!< dirty target, full buffer
    std::uint64_t coherenceInvalidations = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0; //!< prefetched lines demanded
    std::uint64_t prefetchesAvoided = 0;//!< target already resident
    std::uint64_t writeBufferFullStalls = 0;

    // Time.
    double totalAccessCycles = 0.0; //!< sum of per-access latencies
    Cycle completionCycle = 0;      //!< cycle the last access finished

    /** Average memory access time in cycles. */
    double amat() const;

    /** Fraction of accesses that went to memory. */
    double missRatio() const;

    /** Fraction of accesses that hit (main or aux or bypass buffer). */
    double hitRatio() const;

    /** Fraction of hits served by the main cache. */
    double mainHitShare() const;

    /** Fraction of hits served by the aux (bounce-back) cache. */
    double auxHitShare() const;

    /** 4-byte words fetched from memory per access (Figure 7a). */
    double wordsFetchedPerAccess() const;

    /** Print a human-readable summary. */
    void print(std::ostream &os) const;

    /**
     * Exact component-wise equality, timing fields included. The
     * streaming engine and replay on supplied shadow outcomes must be
     * bit-identical to materialized replay on the simulator's own
     * classifier, not merely close, so tests compare whole RunStats
     * objects.
     */
    bool operator==(const RunStats &) const = default;

    /**
     * Merge the counters of another run: every event count and the
     * cycle total accumulate; the completion cycle is the maximum
     * (runs are independent, not concatenated). Used by the sweep
     * aggregation path to fold per-cell stats into suite totals.
     */
    RunStats &operator+=(const RunStats &o);

    /**
     * Register every counter into @p reg under dotted telemetry
     * names ("cache.main.hits", "bounce.aborted", ...) prefixed by
     * @p prefix, with descriptions, and set the registered values
     * from this run. The same names always map to the same fields,
     * so registry totals and legacy fields agree exactly (tested by
     * telemetry_test).
     */
    void registerInto(telemetry::CounterRegistry &reg,
                      const std::string &prefix = "") const;

    /**
     * Invoke @p f(name, description, value) for every uint64 counter
     * in registerInto() registration order with the same dotted names
     * (totalAccessCycles, being a double, is not enumerated).
     * Header-only so layers that must not link sac_sim — the interval
     * engine in sac_telemetry — can walk the counter schema;
     * registerInto() is implemented on top of it, which keeps the two
     * enumerations identical by construction.
     */
    template <typename F>
    void forEachCounter(F &&f) const;
};

template <typename F>
void
RunStats::forEachCounter(F &&f) const
{
    f("access.total", "memory references simulated", accesses);
    f("access.reads", "read references", reads);
    f("access.writes", "write references", writes);
    f("cache.main.hits", "hits served by the main cache", mainHits);
    f("cache.aux.hits",
      "hits served by the aux (bounce-back / victim) cache", auxHits);
    f("cache.aux.prefetch_hits", "aux hits on prefetched lines",
      auxPrefetchHits);
    f("cache.miss.total", "demand fetches from memory", misses);
    f("cache.miss.compulsory", "compulsory (cold) misses",
      compulsoryMisses);
    f("cache.miss.capacity", "capacity misses", capacityMisses);
    f("cache.miss.conflict", "conflict misses", conflictMisses);
    f("bypass.total", "accesses served by bypass", bypasses);
    f("bypass.buffer_hits", "hits in the one-line bypass buffer",
      bypassBufferHits);
    f("traffic.lines_fetched", "physical lines from memory",
      linesFetched);
    f("traffic.bytes_fetched", "demand + prefetch fetch bytes",
      bytesFetched);
    f("traffic.bytes_written_back", "write-buffer drain bytes",
      bytesWrittenBack);
    f("vline.fills", "misses that fetched more than one line",
      virtualLineFills);
    f("vline.extra_lines", "lines fetched beyond the missed one",
      extraLinesFetched);
    f("swap.total", "aux hit swaps", swaps);
    f("bounce.done", "temporal bounce-backs performed", bounces);
    f("bounce.cancelled",
      "bounces aimed at an in-flight miss fill target",
      bouncesCancelled);
    f("bounce.aborted",
      "bounces onto a dirty line with a full write buffer",
      bouncesAborted);
    f("coherence.invalidations",
      "virtual-line fills skipped for aux-resident lines",
      coherenceInvalidations);
    f("prefetch.issued", "prefetch requests issued", prefetchesIssued);
    f("prefetch.useful", "prefetched lines that were demanded",
      prefetchesUseful);
    f("prefetch.avoided",
      "prefetches skipped because the target was resident",
      prefetchesAvoided);
    f("write_buffer.full_stalls",
      "stalls forced by a full write buffer", writeBufferFullStalls);
    f("time.completion_cycle", "cycle the last access finished",
      static_cast<std::uint64_t>(completionCycle));
}

/** Stream the print() summary. */
std::ostream &operator<<(std::ostream &os, const RunStats &s);

/** Component-wise sum (operator+= on a copy). */
RunStats operator+(RunStats a, const RunStats &b);

} // namespace sim
} // namespace sac

#endif // SAC_SIM_RUN_STATS_HH
