/**
 * @file
 * Single-pass Mattson stack-distance profiler: one traversal of a
 * trace yields the exact LRU miss count of every cache geometry in a
 * lattice of set counts x associativities x line sizes, instead of
 * one full replay per configuration.
 *
 * The classical result (Mattson et al., 1970): under LRU an A-way
 * set-associative cache with bit-selected indexing hits a reference
 * iff the referenced line is among the A most recently used lines of
 * its set. Tracking, per set, the recency order of the lines mapped
 * to it therefore answers "hit or miss?" for every associativity at
 * once; configurations sharing a (line size, set count) pair share
 * one recency structure, and a size x assoc sweep collapses to a
 * handful of structures updated in a single pass.
 *
 * The structures are grouped by line size. Each line group owns ONE
 * flat open-addressing hash of the lines touched so far (the
 * sim::MissClassifier idiom), shared by all its set counts: it tells
 * a compulsory first touch from a reuse, once per record. Each set
 * count keeps, per set, that set's most recently used lines in MRU
 * order, truncated at the largest associativity any lattice point
 * asks of that (line, sets) pair — an LRU list stored as a small
 * contiguous array. A reused line missing from its set's array was
 * pushed past the cap ("deep"), so distances beyond the cap and
 * compulsory first touches stay distinguishable while the per-access
 * cost stays O(cap).
 *
 * Cost: the pass scans the trace once per distinct line size, with
 * one hash probe per record per line size; the array work scales
 * with the number of distinct (line size, set count) pairs.
 * Associativities sharing a set count are free.
 *
 * Scope: the engine models exactly what the simulator's Standard
 * feature path does to the main array — one physical line per access,
 * LRU with invalid-way preference, bit-selected sets — so its miss
 * counts are bit-identical to core::simulateTrace for standard
 * configurations (the StackDifferential tests prove this). Timing
 * (AMAT) is not modeled: a stack pass yields counts, not cycles.
 *
 * Layering: like the rest of sac_sim, this header never names a
 * sac_core symbol; the harness maps core::Config points onto
 * StackPoint and back.
 */

#ifndef SAC_SIM_STACK_ENGINE_HH
#define SAC_SIM_STACK_ENGINE_HH

#include <cstdint>
#include <vector>

#include "src/trace/record.hh"
#include "src/util/types.hh"

namespace sac {

namespace trace {
class TraceSource;
}

namespace sim {

/** One LRU cache geometry answered by a stack pass. */
struct StackPoint
{
    std::uint64_t cacheSizeBytes = 8 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 1;

    /** Number of sets (cacheSizeBytes / (lineBytes * assoc)). */
    std::uint64_t
    sets() const
    {
        return cacheSizeBytes /
               (static_cast<std::uint64_t>(lineBytes) * assoc);
    }

    /**
     * Can a stack pass answer this point? Requires the bit-selection
     * geometry of cache::CacheArray: power-of-two line size and set
     * count, size a multiple of line * assoc.
     */
    bool wellFormed() const;
};

/**
 * Single-pass exact-LRU profiler over a lattice of StackPoints.
 *
 * Build it from every point of the sweep, feed the trace once (run()
 * or repeated feed() calls), then query missCount() per point. Points
 * sharing a line size share one line table, and points sharing
 * (lineBytes, sets) share one set of LRU lists; the pass cost scales
 * with those two counts, not with the number of lattice points.
 *
 * Not thread-safe; single consumer, like the sources it drains.
 */
class StackDistanceEngine
{
  public:
    /** @param points the lattice; every point must be wellFormed() */
    explicit StackDistanceEngine(const std::vector<StackPoint> &points);

    ~StackDistanceEngine();

    /** Profile @p n records (appends to the current pass). */
    void feed(const trace::Record *recs, std::size_t n);

    /**
     * Drain @p src in chunks through feed().
     * @return records consumed
     */
    std::uint64_t run(trace::TraceSource &src);

    /** Records profiled so far. */
    std::uint64_t accesses() const { return accesses_; }

    /** Read records profiled so far. */
    std::uint64_t reads() const { return reads_; }

    /** Write records profiled so far. */
    std::uint64_t writes() const { return writes_; }

    /** Is @p p covered by this engine's lattice? */
    bool covers(const StackPoint &p) const;

    /**
     * Exact LRU demand-miss count of @p p over everything fed so far.
     * @p p must be covered.
     */
    std::uint64_t missCount(const StackPoint &p) const;

    /** missCount() / accesses() (0 when nothing was fed). */
    double missRatio(const StackPoint &p) const;

    /**
     * Distinct lines touched at @p p's line granularity — the
     * compulsory-miss count of every point sharing that line size.
     */
    std::uint64_t touchedLines(std::uint32_t line_bytes) const;

  private:
    class LineGroup;

    /** The line group of @p line_bytes, or nullptr. */
    const LineGroup *groupOf(std::uint32_t line_bytes) const;

    std::vector<LineGroup> groups_;
    std::uint64_t accesses_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_STACK_ENGINE_HH
