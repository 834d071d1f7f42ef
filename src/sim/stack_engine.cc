#include "src/sim/stack_engine.hh"

#include <algorithm>
#include <map>

#include "src/trace/trace_source.hh"
#include "src/util/logging.hh"

namespace sac {
namespace sim {

namespace {

inline bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

bool
StackPoint::wellFormed() const
{
    if (!isPowerOfTwo(lineBytes) || assoc == 0)
        return false;
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(lineBytes) * assoc;
    if (cacheSizeBytes == 0 || cacheSizeBytes % way_bytes != 0)
        return false;
    return isPowerOfTwo(cacheSizeBytes / way_bytes);
}

/**
 * The recency state of every set count at one line size.
 *
 * Each set count keeps, per set, the set's most recently used lines
 * in MRU order, truncated at the deepest associativity any lattice
 * point asks of that (line, sets) pair — an LRU list stored as a
 * small contiguous array. A reference found at array position d
 * (1-based) has stack distance d and lands in depthCount[d]; a line
 * not in its set's array (a first touch, or a reuse pushed past the
 * cap) is a miss at every associativity of that set count. Both kinds
 * of miss shift the line in at the MRU end, dropping the LRU entry of
 * a full set.
 *
 * Set counts are walked in ascending order, and the walk stops at the
 * first one whose set already holds the line at MRU: with bit-selected
 * sets each set at S sets is a union of sets at 2S sets, so the line
 * is the most recent of its set at every larger set count too. That
 * distance-1 hit changes no array and counts as a miss nowhere.
 */
class StackDistanceEngine::LineGroup
{
  public:
    /** @p counts maps each set count to its deepest associativity. */
    LineGroup(std::uint32_t line_bytes,
              const std::map<std::uint64_t, std::uint32_t> &counts)
        : lineBytes_(line_bytes)
    {
        SAC_ASSERT(isPowerOfTwo(line_bytes),
                   "line size must be a power of two");
        while ((1ull << shift_) < line_bytes)
            ++shift_;
        for (const auto &[sets, max_assoc] : counts) {
            SAC_ASSERT(isPowerOfTwo(sets),
                       "set count must be a power of two");
            SAC_ASSERT(counts_.empty() || sets > counts_.back().setMask + 1,
                       "the early stop needs ascending set counts");
            SAC_ASSERT(max_assoc >= 1, "need at least one way");
            SetCount c;
            c.setMask = sets - 1;
            c.maxAssoc = max_assoc;
            c.ways.resize(static_cast<std::size_t>(sets) * max_assoc);
            c.length.assign(static_cast<std::size_t>(sets), 0);
            c.depthCount.assign(static_cast<std::size_t>(max_assoc) + 1,
                                0);
            counts_.push_back(std::move(c));
        }
    }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t mruRecords() const { return mruRecords_; }

    /** Does this group answer @p assoc ways at @p sets sets? */
    bool
    covers(std::uint64_t sets, std::uint32_t assoc) const
    {
        const SetCount *c = countOf(sets);
        return c && assoc <= c->maxAssoc;
    }

    /** Misses of an @p assoc-way cache of @p sets sets (covered). */
    std::uint64_t
    missCount(std::uint64_t sets, std::uint32_t assoc) const
    {
        const SetCount *c = countOf(sets);
        SAC_ASSERT(c && assoc >= 1 && assoc <= c->maxAssoc,
                   "associativity outside the tracked depth");
        std::uint64_t misses = c->nonResident;
        for (std::uint32_t d = assoc + 1; d <= c->maxAssoc; ++d)
            misses += c->depthCount[d];
        return misses;
    }

    void
    feed(const trace::Record *recs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            access(recs[i].addr >> shift_);
    }

  private:
    /** The recency state of one set count of the group. */
    struct SetCount
    {
        std::uint64_t setMask = 0;
        std::uint32_t maxAssoc = 0;
        /** Per set, maxAssoc entries: resident lines, MRU first. */
        std::vector<Addr> ways;
        std::vector<std::uint32_t> length; //!< resident lines per set
        /** Hits at distance d >= 2 (an MRU hit stops the walk). */
        std::vector<std::uint64_t> depthCount;
        std::uint64_t nonResident = 0; //!< misses at every associativity
    };

    const SetCount *
    countOf(std::uint64_t sets) const
    {
        for (const SetCount &c : counts_) {
            if (c.setMask + 1 == sets)
                return &c;
        }
        return nullptr;
    }

    void
    access(Addr line)
    {
        for (SetCount &c : counts_) {
            const std::size_t set =
                static_cast<std::size_t>(line & c.setMask);
            Addr *ways = &c.ways[set * c.maxAssoc];
            std::uint32_t &len = c.length[set];
            if (ways[0] == line && len != 0) {
                // MRU here is MRU at every larger set count.
                mruRecords_ += &c == counts_.data();
                return;
            }
            std::uint32_t d = 1;
            while (d < len && ways[d] != line)
                ++d;
            if (d < len) {
                ++c.depthCount[d + 1];
            } else {
                ++c.nonResident;
                if (len < c.maxAssoc)
                    ++len;
                d = len - 1; // a full set drops its LRU entry
            }
            for (; d > 0; --d)
                ways[d] = ways[d - 1];
            ways[0] = line;
        }
    }

    std::uint32_t lineBytes_;
    std::uint32_t shift_ = 0;
    std::vector<SetCount> counts_; //!< ascending set counts
    std::uint64_t mruRecords_ = 0; //!< records stopped at the first count
};

StackDistanceEngine::StackDistanceEngine(
    const std::vector<StackPoint> &points)
{
    SAC_ASSERT(!points.empty(), "a stack pass needs lattice points");
    // line size -> set count -> deepest associativity asked of it.
    std::map<std::uint32_t, std::map<std::uint64_t, std::uint32_t>>
        lattice;
    for (const StackPoint &p : points) {
        SAC_ASSERT(p.wellFormed(),
                   "stack lattice point is not a power-of-two LRU "
                   "geometry");
        std::uint32_t &depth = lattice[p.lineBytes][p.sets()];
        depth = std::max(depth, p.assoc);
    }
    groups_.reserve(lattice.size());
    for (const auto &[line_bytes, counts] : lattice)
        groups_.emplace_back(line_bytes, counts);
}

StackDistanceEngine::~StackDistanceEngine() = default;

void
StackDistanceEngine::feed(const trace::Record *recs, std::size_t n)
{
    accesses_ += n;
    for (std::size_t i = 0; i < n; ++i)
        reads_ += recs[i].isRead();
    writes_ = accesses_ - reads_;
    // Group-major: one scan of the records per line size.
    for (LineGroup &g : groups_)
        g.feed(recs, n);
}

std::uint64_t
StackDistanceEngine::run(trace::TraceSource &src)
{
    std::vector<trace::Record> buf(
        trace::TraceSource::defaultChunkRecords);
    std::uint64_t total = 0;
    while (const std::size_t n = src.next(buf.data(), buf.size())) {
        feed(buf.data(), n);
        total += n;
    }
    return total;
}

const StackDistanceEngine::LineGroup *
StackDistanceEngine::groupOf(std::uint32_t line_bytes) const
{
    for (const LineGroup &g : groups_) {
        if (g.lineBytes() == line_bytes)
            return &g;
    }
    return nullptr;
}

bool
StackDistanceEngine::covers(const StackPoint &p) const
{
    if (!p.wellFormed())
        return false;
    const LineGroup *g = groupOf(p.lineBytes);
    return g && g->covers(p.sets(), p.assoc);
}

std::uint64_t
StackDistanceEngine::missCount(const StackPoint &p) const
{
    SAC_ASSERT(covers(p), "point is not covered by this stack pass");
    return groupOf(p.lineBytes)->missCount(p.sets(), p.assoc);
}

double
StackDistanceEngine::missRatio(const StackPoint &p) const
{
    return accesses_ > 0 ? static_cast<double>(missCount(p)) /
                               static_cast<double>(accesses_)
                         : 0.0;
}

std::uint64_t
StackDistanceEngine::mruRecords() const
{
    std::uint64_t total = 0;
    for (const LineGroup &g : groups_)
        total += g.mruRecords();
    return total;
}

} // namespace sim
} // namespace sac
