/**
 * @file
 * Generic set-associative cache storage with the per-line state the
 * software-assisted design needs: valid, dirty, the temporal bit
 * (Section 2.2) and the prefetched bit (Section 4.4). The array holds
 * state only — all timing, bounce-back and virtual-line policy lives
 * in the simulators built on top (src/core).
 *
 * Storage is structure-of-arrays: tags, flag bits and LRU stamps live
 * in separate vectors so the hot residency probe (findWay) touches
 * exactly 8 bytes per way instead of a whole line-state struct. The
 * AoS LineState struct remains the exchange type — snapshots,
 * victims and full-state installs — and every mutation goes through
 * the LineRef proxy so the tag vector and the derived prefetched-line
 * count can never fall out of sync with the flags.
 *
 * Every operation the simulators' per-access path uses (probe, slot
 * views and their setters, touch, victim choice, insert) is defined
 * inline below, so a replay loop compiles them into its own body.
 */

#ifndef SAC_CACHE_CACHE_ARRAY_HH
#define SAC_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/logging.hh"
#include "src/util/types.hh"

namespace sac {
namespace cache {

/** Snapshot of one physical cache line (the SoA exchange type). */
struct LineState
{
    /** Line address (byte address >> log2(lineBytes)); meaningful only
     *  when valid. */
    Addr lineAddr = 0;
    bool valid = false;
    bool dirty = false;
    /** Temporal bit, set by accesses whose instruction is tagged. */
    bool temporal = false;
    /** Line was brought in by the prefetcher and not yet demanded. */
    bool prefetched = false;
    /** LRU stamp: larger is more recently used. */
    std::uint64_t lruStamp = 0;
};

/** Victim-selection policy within a set. */
enum class ReplacementPolicy
{
    /** Plain least-recently-used. */
    Lru,
    /**
     * Prefer evicting lines without the temporal bit (the paper's
     * cheaper software control for set-associative caches, Fig 9b):
     * LRU among non-temporal lines; fall back to LRU over all lines.
     */
    LruPreferNonTemporal,
    /**
     * Prefer evicting prefetched lines (used by the bounce-back cache
     * when it doubles as a prefetch buffer, Section 4.4): LRU among
     * prefetched lines first, then plain LRU.
     */
    LruPreferPrefetched,
};

/**
 * A set-associative array of physical lines. A direct-mapped cache is
 * assoc == 1; a fully-associative buffer is sets == 1.
 */
class CacheArray
{
  public:
    /**
     * Mutable view of one (set, way) slot. All writes funnel through
     * the owning array so the SoA columns stay consistent. Copies are
     * cheap (pointer + index) and stay valid for the array's lifetime;
     * they view the slot, not the line, so an eviction re-targets
     * them to the new occupant.
     */
    class LineRef
    {
      public:
        Addr lineAddr() const { return arr_->tags_[idx_]; }
        bool valid() const { return arr_->flagged(idx_, kValid); }
        bool dirty() const { return arr_->flagged(idx_, kDirty); }
        bool temporal() const { return arr_->flagged(idx_, kTemporal); }
        bool prefetched() const
        {
            return arr_->flagged(idx_, kPrefetched);
        }
        std::uint64_t lruStamp() const { return arr_->stamps_[idx_]; }

        void setDirty(bool v = true) { arr_->setFlag(idx_, kDirty, v); }
        void setTemporal(bool v = true)
        {
            arr_->setFlag(idx_, kTemporal, v);
        }
        void setPrefetched(bool v = true)
        {
            arr_->setPrefetched(idx_, v);
        }

        /** Materialize the slot as an AoS snapshot. */
        LineState state() const { return arr_->stateAt(idx_); }

        /** Install a full line state (tag, flags and stamp). */
        void assign(const LineState &s) { arr_->assignAt(idx_, s); }

        /** Invalidate the slot. */
        void clear() { arr_->clearAt(idx_); }

        /** Mark the slot most recently used. */
        void touch() { arr_->stamps_[idx_] = ++arr_->stampCounter_; }

      private:
        friend class CacheArray;
        LineRef(CacheArray &a, std::size_t i) : arr_(&a), idx_(i) {}

        CacheArray *arr_;
        std::size_t idx_;
    };

    /**
     * @param size_bytes total capacity; must be sets * assoc * line
     * @param line_bytes physical line size (power of two)
     * @param assoc associativity (>= 1)
     */
    CacheArray(std::uint64_t size_bytes, std::uint32_t line_bytes,
               std::uint32_t assoc);

    /** Line size in bytes. */
    std::uint32_t lineBytes() const { return lineBytes_; }

    /** Number of sets. */
    std::uint32_t numSets() const { return sets_; }

    /** Associativity. */
    std::uint32_t assoc() const { return assoc_; }

    /** Total capacity in bytes. */
    std::uint64_t sizeBytes() const;

    /** Line address of a byte address. */
    Addr lineAddrOf(Addr byte_addr) const
    {
        return byte_addr >> lineShift_;
    }

    /** First byte address of a line address. */
    Addr byteAddrOf(Addr line_addr) const
    {
        return line_addr << lineShift_;
    }

    /** Set index of a line address. */
    std::uint32_t setIndexOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(line_addr & (sets_ - 1));
    }

    /**
     * Find the way holding @p line_addr. Scans only the packed tag
     * column; invalid ways hold a sentinel tag that cannot match a
     * real line address.
     * @retval way index when present, std::nullopt on miss
     */
    std::optional<std::uint32_t>
    findWay(Addr line_addr) const
    {
        return findWay(line_addr, setIndexOf(line_addr));
    }

    /** findWay() for a caller that already holds the line's set. */
    std::optional<std::uint32_t>
    findWay(Addr line_addr, std::uint32_t set) const
    {
        const Addr *t = &tags_[static_cast<std::size_t>(set) * assoc_];
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (t[w] == line_addr)
                return w;
        }
        return std::nullopt;
    }

    /** True when @p line_addr is resident. */
    bool contains(Addr line_addr) const
    {
        return findWay(line_addr).has_value();
    }

    /** Mutable view of the slot at (set, way). */
    LineRef line(std::uint32_t set, std::uint32_t way);

    /** Snapshot of the slot at (set, way). */
    LineState line(std::uint32_t set, std::uint32_t way) const;

    /** Mutable view of the resident line for @p line_addr, if any. */
    std::optional<LineRef> find(Addr line_addr);

    /** Mark (set, way) most recently used. */
    void touch(std::uint32_t set, std::uint32_t way);

    /**
     * Choose a victim way in @p set under @p policy. Invalid ways are
     * always preferred.
     */
    std::uint32_t victimWay(std::uint32_t set,
                            ReplacementPolicy policy) const;

    /** What insert() did: the slot it filled and what that slot held. */
    struct Insertion
    {
        LineRef slot;      //!< view of the filled slot
        LineState evicted; //!< previous contents (valid == false if none)
    };

    /**
     * Install @p line_addr into (set computed from the address, way
     * from @p policy). The installed line is valid, clean,
     * non-temporal, non-prefetched and most recently used.
     */
    Insertion insert(Addr line_addr, ReplacementPolicy policy);

    /** Invalidate @p line_addr if present; returns the old state. */
    std::optional<LineState> invalidate(Addr line_addr);

    /** Invalidate every line. */
    void reset();

    /** Count of currently valid lines. */
    std::uint32_t validCount() const;

    /**
     * Snapshot every slot in set-major order (sets * assoc entries).
     * Together with lruClock() this captures the array's complete
     * architectural state for checkpointing.
     */
    std::vector<LineState> snapshotLines() const;

    /** Monotonic LRU stamp source; pair with snapshotLines(). */
    std::uint64_t lruClock() const { return stampCounter_; }

    /**
     * Restore a snapshotLines() image onto an identically shaped
     * array. @p lines must hold exactly sets * assoc entries in
     * set-major order; @p lru_clock reseeds the stamp counter so
     * later touches keep strictly increasing stamps.
     */
    void restoreLines(const std::vector<LineState> &lines,
                      std::uint64_t lru_clock);

    /**
     * Count of resident lines with the prefetched bit, maintained
     * incrementally (the prefetch-budget check of Section 4.4 used to
     * rescan the whole array per install).
     */
    std::uint32_t prefetchedCount() const { return prefetchedCount_; }

  private:
    friend class LineRef;

    /**
     * Per-line flag bits. Deliberately not a character type: a store
     * through unsigned char may alias any object, so a one-byte flag
     * column made the compiler reload every member of the simulator
     * (array pointers, geometry, config) after each flag write on the
     * access path.
     */
    using Flags = std::uint16_t;
    static constexpr Flags kValid = 1u << 0;
    static constexpr Flags kDirty = 1u << 1;
    static constexpr Flags kTemporal = 1u << 2;
    static constexpr Flags kPrefetched = 1u << 3;

    /** Tag stored in empty ways; no real line address equals it. */
    static constexpr Addr invalidTag = ~static_cast<Addr>(0);

    std::size_t flatIndex(std::uint32_t set, std::uint32_t way) const
    {
        SAC_ASSERT(set < sets_ && way < assoc_, "set/way out of range");
        return static_cast<std::size_t>(set) * assoc_ + way;
    }
    bool flagged(std::size_t idx, Flags bit) const
    {
        return (flags_[idx] & bit) != 0;
    }
    void setFlag(std::size_t idx, Flags bit, bool v)
    {
        if (v)
            flags_[idx] |= bit;
        else
            flags_[idx] &= static_cast<Flags>(~bit);
    }
    void setPrefetched(std::size_t idx, bool v);
    LineState stateAt(std::size_t idx) const;
    void assignAt(std::size_t idx, const LineState &s);
    void clearAt(std::size_t idx);

    std::uint32_t lineBytes_;
    std::uint32_t lineShift_;
    std::uint32_t sets_;
    std::uint32_t assoc_;
    // SoA columns, sets_ * assoc_ entries each, set-major.
    std::vector<Addr> tags_;           //!< line addr, or invalidTag
    std::vector<Flags> flags_;         //!< kValid|kDirty|... bits
    std::vector<std::uint64_t> stamps_; //!< LRU stamps
    std::uint64_t stampCounter_ = 0;
    std::uint32_t prefetchedCount_ = 0;
};

inline void
CacheArray::setPrefetched(std::size_t idx, bool v)
{
    if (flagged(idx, kPrefetched) == v)
        return;
    setFlag(idx, kPrefetched, v);
    if (v)
        ++prefetchedCount_;
    else
        --prefetchedCount_;
}

inline LineState
CacheArray::stateAt(std::size_t idx) const
{
    LineState s;
    s.valid = flagged(idx, kValid);
    s.lineAddr = s.valid ? tags_[idx] : 0;
    s.dirty = flagged(idx, kDirty);
    s.temporal = flagged(idx, kTemporal);
    s.prefetched = flagged(idx, kPrefetched);
    s.lruStamp = stamps_[idx];
    return s;
}

inline void
CacheArray::assignAt(std::size_t idx, const LineState &s)
{
    setPrefetched(idx, s.prefetched);
    Flags f = flags_[idx] & kPrefetched;
    if (s.valid)
        f |= kValid;
    if (s.dirty)
        f |= kDirty;
    if (s.temporal)
        f |= kTemporal;
    flags_[idx] = f;
    tags_[idx] = s.valid ? s.lineAddr : invalidTag;
    stamps_[idx] = s.lruStamp;
}

inline void
CacheArray::clearAt(std::size_t idx)
{
    setPrefetched(idx, false);
    flags_[idx] = 0;
    tags_[idx] = invalidTag;
    stamps_[idx] = 0;
}

inline CacheArray::LineRef
CacheArray::line(std::uint32_t set, std::uint32_t way)
{
    return LineRef(*this, flatIndex(set, way));
}

inline LineState
CacheArray::line(std::uint32_t set, std::uint32_t way) const
{
    return stateAt(flatIndex(set, way));
}

inline std::optional<CacheArray::LineRef>
CacheArray::find(Addr line_addr)
{
    const std::uint32_t set = setIndexOf(line_addr);
    const auto way = findWay(line_addr, set);
    if (!way)
        return std::nullopt;
    return line(set, *way);
}

inline void
CacheArray::touch(std::uint32_t set, std::uint32_t way)
{
    stamps_[flatIndex(set, way)] = ++stampCounter_;
}

inline std::uint32_t
CacheArray::victimWay(std::uint32_t set, ReplacementPolicy policy) const
{
    // A way is preferred when (flags & mask) == want; plain LRU
    // prefers none (no flag word masked by 0 equals 1).
    Flags mask = 0;
    Flags want = 1;
    switch (policy) {
      case ReplacementPolicy::LruPreferNonTemporal:
        mask = kTemporal;
        want = 0;
        break;
      case ReplacementPolicy::LruPreferPrefetched:
        mask = kPrefetched;
        want = kPrefetched;
        break;
      case ReplacementPolicy::Lru:
        break;
    }
    // One pass: the first invalid way is a free slot and wins at
    // once; otherwise the LRU preferred way, else the LRU way (the
    // first of equal stamps in both cases).
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    const Flags *f = &flags_[base];
    const std::uint64_t *stamp = &stamps_[base];
    std::uint32_t lru = 0;
    std::uint32_t preferred = assoc_;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if ((f[w] & kValid) == 0)
            return w;
        if (stamp[w] < stamp[lru])
            lru = w;
        if ((f[w] & mask) == want &&
            (preferred == assoc_ || stamp[w] < stamp[preferred]))
            preferred = w;
    }
    return preferred != assoc_ ? preferred : lru;
}

inline CacheArray::Insertion
CacheArray::insert(Addr line_addr, ReplacementPolicy policy)
{
    const std::uint32_t set = setIndexOf(line_addr);
    const std::uint32_t way = victimWay(set, policy);
    const std::size_t idx = flatIndex(set, way);
    const LineState evicted = stateAt(idx);
    setPrefetched(idx, false);
    flags_[idx] = kValid;
    tags_[idx] = line_addr;
    stamps_[idx] = ++stampCounter_;
    return {LineRef(*this, idx), evicted};
}

} // namespace cache
} // namespace sac

#endif // SAC_CACHE_CACHE_ARRAY_HH
