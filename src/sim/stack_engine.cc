#include "src/sim/stack_engine.hh"

#include <algorithm>

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
 * The recency tracker of one (lineBytes, sets) pair: per-set
 * intrusive LRU lists truncated at the deepest associativity any
 * lattice point needs, over a flat open-addressing hash of
 * line -> node. A hit at list position d (1-based from the MRU end)
 * lands in depthCount_[d]; first touches are compulsory, touches of
 * lines evicted past the cap are "deep" (distance > cap), and both
 * miss at every tracked associativity.
 */
class StackDistanceEngine::Profiler
{
  public:
    Profiler(std::uint32_t line_bytes, std::uint64_t sets,
             std::uint32_t max_assoc)
        : lineBytes_(line_bytes),
          sets_(sets),
          maxAssoc_(max_assoc),
          setMask_(sets - 1),
          depthCount_(static_cast<std::size_t>(max_assoc) + 1, 0),
          head_(static_cast<std::size_t>(sets), npos),
          tail_(static_cast<std::size_t>(sets), npos),
          length_(static_cast<std::size_t>(sets), 0)
    {
        SAC_ASSERT(isPowerOfTwo(line_bytes),
                   "line size must be a power of two");
        SAC_ASSERT(isPowerOfTwo(sets),
                   "set count must be a power of two");
        SAC_ASSERT(max_assoc >= 1, "need at least one way");
        shift_ = 0;
        while ((1ull << shift_) < line_bytes)
            ++shift_;
        table_.resize(1024);
        mask_ = table_.size() - 1;
    }

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t sets() const { return sets_; }
    std::uint32_t maxAssoc() const { return maxAssoc_; }
    std::uint64_t touched() const { return touched_; }

    /** Raise the tracked depth (pre-pass only: nothing fed yet). */
    void
    widen(std::uint32_t max_assoc)
    {
        SAC_ASSERT(touched_ == 0, "widen() after feeding");
        if (max_assoc > maxAssoc_) {
            maxAssoc_ = max_assoc;
            depthCount_.assign(
                static_cast<std::size_t>(max_assoc) + 1, 0);
        }
    }

    void
    access(Addr byte_addr)
    {
        const Addr line = byte_addr >> shift_;
        bool inserted = false;
        const std::size_t slot = findOrInsert(line, inserted);
        if (inserted) {
            ++compulsory_;
            table_[slot].node = pushFront(line);
            return;
        }
        const std::uint32_t n = table_[slot].node;
        if (n == npos) {
            // Seen before, but evicted past the tracked depth: the
            // stack distance exceeds maxAssoc_, a miss at every
            // associativity this profiler answers.
            ++deep_;
            table_[slot].node = pushFront(line);
            return;
        }
        // Resident within the top maxAssoc_: its 1-based position in
        // the set's list is the stack distance.
        const std::uint64_t set = line & setMask_;
        std::uint32_t depth = 1;
        for (std::uint32_t cur = head_[set]; cur != n;
             cur = nodes_[cur].next)
            ++depth;
        ++depthCount_[depth];
        moveToFront(n, set);
    }

    /** Misses of an @p assoc-way cache (assoc <= maxAssoc()). */
    std::uint64_t
    missCount(std::uint32_t assoc) const
    {
        SAC_ASSERT(assoc >= 1 && assoc <= maxAssoc_,
                   "associativity outside the tracked depth");
        std::uint64_t misses = compulsory_ + deep_;
        for (std::uint32_t d = assoc + 1; d <= maxAssoc_; ++d)
            misses += depthCount_[d];
        return misses;
    }

  private:
    static constexpr std::uint32_t npos = 0xffffffffu;

    /** One table slot: a touched line and its list residence. */
    struct Slot
    {
        Addr line = 0;
        std::uint32_t node = npos;
        bool used = false;
    };

    /** One pool entry of a per-set intrusive LRU list. */
    struct Node
    {
        Addr line = 0;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    std::size_t
    findOrInsert(Addr line, bool &inserted)
    {
        std::size_t i = mixLine(line) & mask_;
        while (table_[i].used) {
            if (table_[i].line == line) {
                inserted = false;
                return i;
            }
            i = (i + 1) & mask_;
        }
        inserted = true;
        ++touched_;
        if (touched_ * 4 > table_.size() * 3) {
            grow();
            i = mixLine(line) & mask_;
            while (table_[i].used)
                i = (i + 1) & mask_;
        }
        table_[i].used = true;
        table_[i].line = line;
        table_[i].node = npos;
        return i;
    }

    std::size_t
    find(Addr line) const
    {
        std::size_t i = mixLine(line) & mask_;
        while (!(table_[i].used && table_[i].line == line))
            i = (i + 1) & mask_;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(table_);
        table_.resize(old.size() * 2);
        mask_ = table_.size() - 1;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = mixLine(s.line) & mask_;
            while (table_[i].used)
                i = (i + 1) & mask_;
            table_[i] = s;
        }
    }

    /**
     * Put @p line at the MRU end of its set, evicting the set's LRU
     * node past the cap when the list is full (the evicted line keeps
     * its hash entry, marked deep). Returns the node used.
     */
    std::uint32_t
    pushFront(Addr line)
    {
        const std::uint64_t set = line & setMask_;
        std::uint32_t n;
        if (length_[set] == maxAssoc_) {
            n = tail_[set];
            table_[find(nodes_[n].line)].node = npos;
            unlink(n, set);
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back({});
            ++length_[set];
        }
        nodes_[n].line = line;
        linkFront(n, set);
        return n;
    }

    void
    moveToFront(std::uint32_t n, std::uint64_t set)
    {
        if (head_[set] == n)
            return;
        unlink(n, set);
        linkFront(n, set);
    }

    void
    linkFront(std::uint32_t n, std::uint64_t set)
    {
        nodes_[n].prev = npos;
        nodes_[n].next = head_[set];
        if (head_[set] != npos)
            nodes_[head_[set]].prev = n;
        head_[set] = n;
        if (tail_[set] == npos)
            tail_[set] = n;
    }

    void
    unlink(std::uint32_t n, std::uint64_t set)
    {
        const std::uint32_t p = nodes_[n].prev;
        const std::uint32_t x = nodes_[n].next;
        if (p != npos)
            nodes_[p].next = x;
        else
            head_[set] = x;
        if (x != npos)
            nodes_[x].prev = p;
        else
            tail_[set] = p;
    }

    std::uint32_t lineBytes_;
    std::uint64_t sets_;
    std::uint32_t maxAssoc_;
    std::uint64_t setMask_;
    std::uint32_t shift_ = 0;

    std::vector<Slot> table_; //!< power-of-two open addressing
    std::size_t mask_ = 0;
    std::vector<Node> nodes_; //!< shared pool; <= sets * maxAssoc
    std::vector<std::uint64_t> depthCount_; //!< hits at distance d
    std::uint64_t compulsory_ = 0;          //!< first touches
    std::uint64_t deep_ = 0; //!< reuses at distance > maxAssoc_
    std::uint64_t touched_ = 0;

    // Per-set truncated LRU lists over the node pool.
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> tail_;
    std::vector<std::uint32_t> length_;
};

StackDistanceEngine::StackDistanceEngine(
    const std::vector<StackPoint> &points)
{
    SAC_ASSERT(!points.empty(), "a stack pass needs lattice points");
    for (const StackPoint &p : points) {
        SAC_ASSERT(p.wellFormed(),
                   "stack lattice point is not a power-of-two LRU "
                   "geometry");
        Profiler *existing = nullptr;
        for (Profiler &prof : profilers_) {
            if (prof.lineBytes() == p.lineBytes &&
                prof.sets() == p.sets()) {
                existing = &prof;
                break;
            }
        }
        if (existing)
            existing->widen(p.assoc);
        else
            profilers_.emplace_back(p.lineBytes, p.sets(), p.assoc);
    }
}

StackDistanceEngine::~StackDistanceEngine() = default;

void
StackDistanceEngine::feed(const trace::Record *recs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const trace::Record &rec = recs[i];
        ++accesses_;
        if (rec.isRead())
            ++reads_;
        else
            ++writes_;
        for (Profiler &prof : profilers_)
            prof.access(rec.addr);
    }
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

const StackDistanceEngine::Profiler *
StackDistanceEngine::profilerOf(std::uint32_t line_bytes,
                                std::uint64_t sets) const
{
    for (const Profiler &prof : profilers_) {
        if (prof.lineBytes() == line_bytes && prof.sets() == sets)
            return &prof;
    }
    return nullptr;
}

bool
StackDistanceEngine::covers(const StackPoint &p) const
{
    if (!p.wellFormed())
        return false;
    const Profiler *prof = profilerOf(p.lineBytes, p.sets());
    return prof && p.assoc <= prof->maxAssoc();
}

std::uint64_t
StackDistanceEngine::missCount(const StackPoint &p) const
{
    const Profiler *prof = profilerOf(p.lineBytes, p.sets());
    SAC_ASSERT(prof && p.assoc <= prof->maxAssoc(),
               "point is not covered by this stack pass");
    return prof->missCount(p.assoc);
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
    for (const Profiler &prof : profilers_) {
        if (prof.lineBytes() == line_bytes)
            return prof.touched();
    }
    SAC_ASSERT(false, "no profiler at this line granularity");
    return 0;
}

} // namespace sim
} // namespace sac
