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
 * The structures are grouped by line size. Each set count of a line
 * group keeps, per set, that set's most recently used lines in MRU
 * order, truncated at the largest associativity any lattice point
 * asks of that (line, sets) pair — an LRU list stored as a small
 * contiguous array. A line missing from its set's array is a miss at
 * every associativity of that set count, whether it is a first touch
 * or a reuse pushed past the cap, so no table of the lines touched so
 * far is kept.
 *
 * Inclusion across set counts (Mattson et al., 1970; Hill & Smith,
 * 1989): with bit-selected sets, each set at S sets is the union of
 * two sets at 2S sets, so a line's stack distance never grows with
 * the set count. A group walks its set counts in ascending
 * order and stops at the first one whose set already holds the line
 * at MRU: the line is at MRU at every larger set count too, a
 * distance-1 hit that changes no recency array and is a miss nowhere.
 *
 * Cost: the pass scans the trace once per distinct line size; per
 * record it walks that group's set counts until the first MRU hit,
 * with O(cap) array work at each count walked. Associativities
 * sharing a set count are free.
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
 * sharing (lineBytes, sets) share one set of LRU lists; the pass cost
 * scales with the number of line sizes and of set counts walked, not
 * with the number of lattice points.
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
     * Records whose line every set count of their line group already
     * held at MRU, summed over line groups: the records the early stop
     * ended at the group's first set count.
     */
    std::uint64_t mruRecords() const;

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
