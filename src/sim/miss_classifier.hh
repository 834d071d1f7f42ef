/**
 * @file
 * The classical three-C miss classifier: a miss is *compulsory* on the
 * first touch of a line, *capacity* when a fully-associative LRU cache
 * of equal size would also have missed, and *conflict* otherwise. The
 * shadow LRU is updated on every access, hit or miss.
 *
 * The classifier sits on the simulator's per-access hot path, so the
 * shadow state is a single flat open-addressing hash table (line ->
 * seen + LRU-node index) plus an intrusive doubly-linked LRU list
 * over a fixed node pool: one probe sequence per access and no
 * allocation in steady state, where the textbook
 * unordered_map/std::list version dominated the whole simulation.
 */

#ifndef SAC_SIM_MISS_CLASSIFIER_HH
#define SAC_SIM_MISS_CLASSIFIER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/types.hh"

namespace sac {
namespace sim {

/** Kind of cache miss, per the classical three-C model. */
enum class MissClass { Compulsory, Capacity, Conflict };

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
     * Record an access to @p byte_addr and, when @p was_miss, return
     * its class; a hit updates the shadow LRU and returns nullopt so
     * it can never be mistaken for a classified miss. Must be called
     * for every demand access in order.
     */
    std::optional<MissClass> access(Addr byte_addr, bool was_miss);

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

} // namespace sim
} // namespace sac

#endif // SAC_SIM_MISS_CLASSIFIER_HH
