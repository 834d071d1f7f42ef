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

/** splitmix64 finalizer: a full-avalanche mix for table probing. */
inline std::size_t
mixLine(Addr line)
{
    std::uint64_t x = line;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
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
 * The recency state of every set count at one line size, over ONE
 * flat open-addressing table of the lines touched so far.
 *
 * The table only answers "touched before?": a first touch is a
 * compulsory miss at every point of the group, counted once. Each
 * set count keeps, per set, the set's most recently used lines in
 * MRU order, truncated at the deepest associativity any lattice
 * point asks of that (line, sets) pair — an LRU list stored as a
 * small contiguous array. A reference found at array position d
 * (1-based) has stack distance d and lands in depthCount[d]; a line
 * touched before but no longer in its set's array was pushed past
 * the cap, a "deep" reuse (distance > cap). Both kinds of miss shift
 * the line in at the MRU end, dropping the LRU entry of a full set.
 * Nothing outside the arrays points into them, so growing the table
 * moves lines only.
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
        table_.assign(1024, vacant);
        mask_ = table_.size() - 1;
    }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t touched() const { return touched_; }

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
        std::uint64_t misses = touched_ + c->deep;
        for (std::uint32_t d = assoc + 1; d <= c->maxAssoc; ++d)
            misses += c->depthCount[d];
        return misses;
    }

    void
    feed(const trace::Record *recs, std::size_t n)
    {
        // The table probe is the one access with no locality; start
        // the fetch of a later record's home slot before it is
        // needed.
        constexpr std::size_t ahead = 8;
        for (std::size_t i = 0; i < n; ++i) {
            if (i + ahead < n)
                prefetch(&table_[mixLine(recs[i + ahead].addr >> shift_) &
                                 mask_]);
            access(recs[i].addr >> shift_);
        }
    }

  private:
    /** Marks a table slot no line occupies. */
    static constexpr Addr vacant = ~Addr{0};

    /** The recency state of one set count of the group. */
    struct SetCount
    {
        std::uint64_t setMask = 0;
        std::uint32_t maxAssoc = 0;
        /** Per set, maxAssoc entries: resident lines, MRU first. */
        std::vector<Addr> ways;
        std::vector<std::uint32_t> length; //!< resident lines per set
        std::vector<std::uint64_t> depthCount; //!< hits at distance d
        std::uint64_t deep = 0; //!< reuses at distance > maxAssoc
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

    static void
    prefetch(const void *p)
    {
#if defined(__GNUC__)
        __builtin_prefetch(p);
#else
        (void)p;
#endif
    }

    void
    access(Addr line)
    {
        const bool first = touch(line);
        for (SetCount &c : counts_) {
            const std::size_t set =
                static_cast<std::size_t>(line & c.setMask);
            Addr *ways = &c.ways[set * c.maxAssoc];
            std::uint32_t &len = c.length[set];
            // A first touch cannot be resident: skip the search.
            std::uint32_t d = first ? len : 0;
            while (d < len && ways[d] != line)
                ++d;
            if (d < len) {
                ++c.depthCount[d + 1];
            } else {
                c.deep += !first;
                if (len < c.maxAssoc)
                    ++len;
                d = len - 1; // a full set drops its LRU entry
            }
            for (; d > 0; --d)
                ways[d] = ways[d - 1];
            ways[0] = line;
        }
    }

    /** Record a touch of @p line; true on its first touch. */
    bool
    touch(Addr line)
    {
        if (line == vacant) {
            // The one line the table cannot hold (only reachable with
            // 1-byte lines) is tracked by a flag instead.
            const bool first = !vacantTouched_;
            vacantTouched_ = true;
            touched_ += first;
            return first;
        }
        std::size_t i = mixLine(line) & mask_;
        for (; table_[i] != vacant; i = (i + 1) & mask_) {
            if (table_[i] == line)
                return false;
        }
        if (++touched_ * 4 > table_.size() * 3) {
            grow();
            i = homeOf(line);
        }
        table_[i] = line;
        return true;
    }

    /** The first vacant slot of @p line's probe sequence. */
    std::size_t
    homeOf(Addr line) const
    {
        std::size_t i = mixLine(line) & mask_;
        while (table_[i] != vacant)
            i = (i + 1) & mask_;
        return i;
    }

    void
    grow()
    {
        std::vector<Addr> old(table_.size() * 2, vacant);
        old.swap(table_);
        mask_ = table_.size() - 1;
        for (const Addr line : old) {
            if (line != vacant)
                table_[homeOf(line)] = line;
        }
    }

    std::uint32_t lineBytes_;
    std::uint32_t shift_ = 0;
    std::vector<SetCount> counts_;

    std::vector<Addr> table_; //!< power-of-two open addressing
    std::size_t mask_ = 0;
    bool vacantTouched_ = false;
    std::uint64_t touched_ = 0; //!< distinct lines = compulsory misses
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
StackDistanceEngine::touchedLines(std::uint32_t line_bytes) const
{
    const LineGroup *g = groupOf(line_bytes);
    SAC_ASSERT(g != nullptr, "no line group at this granularity");
    return g->touched();
}

} // namespace sim
} // namespace sac
