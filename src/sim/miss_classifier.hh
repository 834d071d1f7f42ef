/**
 * @file
 * The classical three-C miss classifier: a miss is *compulsory* on the
 * first touch of a line, *capacity* when a fully-associative LRU cache
 * of equal size would also have missed, and *conflict* otherwise.
 *
 * The classifier is split in two. MissClassifier runs the shadow
 * fully-associative LRU over a batch of records and yields one
 * ShadowOutcome per record; the shadow is updated on every access,
 * hit or miss, so the outcome of record i depends only on the address
 * stream, the line size and the capacity — not on the simulated cache.
 * The simulator then maps the outcome of each of its misses to a
 * MissClass (missClassOf), a table lookup. So one pass serves every
 * configuration of one geometry (harness::Runner latches it per
 * resident trace, packed into PackedOutcomes).
 *
 * The shadow state is a single flat open-addressing hash table (line
 * -> seen + LRU-node index) plus an intrusive doubly-linked LRU list
 * over a fixed node pool: one probe sequence per access and no
 * allocation in steady state.
 */

#ifndef SAC_SIM_MISS_CLASSIFIER_HH
#define SAC_SIM_MISS_CLASSIFIER_HH

#include <cstdint>
#include <vector>

#include "src/trace/trace.hh"
#include "src/util/types.hh"

namespace sac {
namespace sim {

/** Kind of cache miss, per the classical three-C model. */
enum class MissClass { Compulsory, Capacity, Conflict };

/** What the shadow fully-associative LRU saw for one access. */
enum class ShadowOutcome : std::uint8_t
{
    ShadowHit,  //!< the line was resident in the shadow
    FirstTouch, //!< the line was never touched before
    ShadowMiss, //!< touched before, since evicted from the shadow
};

/** The class of a real-cache miss whose shadow outcome is @p o. */
constexpr MissClass
missClassOf(ShadowOutcome o)
{
    return o == ShadowOutcome::FirstTouch   ? MissClass::Compulsory
           : o == ShadowOutcome::ShadowMiss ? MissClass::Capacity
                                            : MissClass::Conflict;
}

/**
 * Tracks the shadow state needed to classify misses at physical-line
 * granularity.
 */
class MissClassifier
{
  public:
    /**
     * @param capacity_lines number of lines a fully-associative cache
     *        of the modeled capacity would hold
     * @param line_bytes physical line size (power of two)
     */
    MissClassifier(std::uint32_t capacity_lines,
                   std::uint32_t line_bytes);

    /**
     * Advance the shadow over @p n records in order, writing the
     * outcome of recs[i] into out[i]. Successive calls continue one
     * stream.
     */
    void classify(const trace::Record *recs, std::size_t n,
                  ShadowOutcome *out);

    /** Number of distinct lines ever touched. */
    std::size_t touchedLines() const { return seenCount_; }

  private:
    /** No LRU node: the line was touched but has since been evicted. */
    static constexpr std::uint32_t npos = 0xffffffffu;

    /**
     * One table slot: a touched line and its LRU residence, packed
     * into 12 bytes, since the table holds every line a trace touches
     * and is most of a simulator's memory. The key is line + 1 in two
     * 32-bit halves; 0 marks a free slot.
     */
    struct Slot
    {
        std::uint32_t keyLo = 0, keyHi = 0;
        std::uint32_t node = npos;

        Addr key() const { return Addr{keyHi} << 32 | keyLo; }

        void
        setKey(Addr key)
        {
            keyLo = static_cast<std::uint32_t>(key);
            keyHi = static_cast<std::uint32_t>(key >> 32);
        }
    };
    static_assert(sizeof(Slot) == 12, "a slot packs into 12 bytes");

    /** One pool entry of the intrusive LRU list. */
    struct Node
    {
        Addr line = 0;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    Addr lineOf(Addr byte_addr) const { return byte_addr >> shift_; }

    /** Shadow access of one line. */
    ShadowOutcome touch(Addr line);

    /**
     * Slot of @p line, inserting an unused slot when absent (may
     * rehash). @p inserted reports a first touch.
     */
    std::size_t findOrInsert(Addr line, bool &inserted);

    /** Slot of @p line, which must be present. */
    std::size_t find(Addr line) const;

    void grow();
    void linkFront(std::uint32_t n);
    void unlink(std::uint32_t n);

    std::uint32_t capacityLines_;
    std::uint32_t shift_;
    std::vector<Slot> table_; //!< power-of-two open addressing
    std::size_t mask_ = 0;
    std::size_t seenCount_ = 0;
    std::vector<Node> nodes_; //!< LRU pool, grown up to capacityLines_
    std::uint32_t head_ = npos; //!< most recently used
    std::uint32_t tail_ = npos; //!< least recently used
};

/**
 * A shadow classifier of @p cfg's geometry (cacheSizeBytes in
 * lineBytes lines); its outcomes serve every config of that geometry.
 * A template, so src/sim need not link against src/core.
 */
template <class Cfg>
MissClassifier
shadowClassifierOf(const Cfg &cfg)
{
    return MissClassifier(
        static_cast<std::uint32_t>(cfg.cacheSizeBytes / cfg.lineBytes),
        cfg.lineBytes);
}

/**
 * The shadow outcomes of a record stream, 2 bits per record (a
 * quarter of a byte per record, where a MissClassifier holds 12 bytes
 * per touched line plus 16 per shadow line).
 */
class PackedOutcomes
{
  public:
    /** Reserve storage for @p n outcomes in all. */
    void reserve(std::size_t n) { bits_.reserve((n + 3) / 4); }

    /** Append @p n outcomes after the ones held. */
    void append(const ShadowOutcome *outcomes, std::size_t n);

    /**
     * Copy outcomes [@p first, @p first + @p n) into @p out; @p first
     * must be a multiple of 4.
     */
    void unpack(std::size_t first, std::size_t n,
                ShadowOutcome *out) const;

    /** Number of outcomes held. */
    std::size_t size() const { return size_; }

    /** Bytes of packed storage. */
    std::size_t bytes() const { return bits_.size(); }

  private:
    std::vector<std::uint8_t> bits_;
    std::size_t size_ = 0;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_MISS_CLASSIFIER_HH
