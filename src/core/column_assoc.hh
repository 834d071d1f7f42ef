/**
 * @file
 * Column-associative cache (Agarwal & Pudar, ISCA 1993) — the second
 * related-work design the paper discusses in Section 5: a
 * direct-mapped cache where a line may also reside in the set whose
 * index has the highest bit flipped. A primary-set miss probes the
 * alternate set (one extra cycle); an alternate hit swaps the two
 * lines so the hot one is found first next time.
 *
 * The paper's remark, testable with this model: "most conflict
 * misses are eliminated. However, the mechanism does not deal with
 * cache pollution."
 */

#ifndef SAC_CORE_COLUMN_ASSOC_HH
#define SAC_CORE_COLUMN_ASSOC_HH

#include "src/cache/cache_array.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/run_stats.hh"
#include "src/sim/timing.hh"
#include "src/sim/write_buffer.hh"
#include "src/trace/trace.hh"

#include <vector>

namespace sac {
namespace core {

/** Configuration of the column-associative baseline. */
struct ColumnAssocConfig
{
    std::string name = "Column-assoc";
    std::uint64_t cacheSizeBytes = 8 * 1024;
    std::uint32_t lineBytes = 32;
    /** Extra cycles for the rehash probe of the alternate set. */
    Cycle rehashProbeCycles = 1;
    sim::TimingParams timing;
    std::uint32_t writeBufferEntries = 8;
};

/** Trace-driven simulator of a column-associative cache. */
class ColumnAssocCache
{
  public:
    explicit ColumnAssocCache(ColumnAssocConfig cfg);

    /**
     * Replay @p n records in issue order, classifying misses by the
     * caller's shadow outcomes (outcomes[i] for recs[i], as
     * SoftwareAssistedCache::replay() reads them; null panics).
     */
    void replay(const trace::Record *recs, std::size_t n,
                const sim::ShadowOutcome *outcomes);

    /** Drain the write buffer; idempotent. */
    void finish();

    /** Statistics; alternate-set hits are reported as auxHits. */
    const sim::RunStats &stats() const { return stats_; }

    /** Is @p addr's line resident (either set)? */
    bool contains(Addr addr) const;

    /** Is @p addr's line resident in its primary set? */
    bool inPrimarySet(Addr addr) const;

  private:
    std::uint32_t primarySet(Addr line) const;
    std::uint32_t alternateSet(Addr line) const;

    /** Simulate one reference whose shadow outcome is @p outcome. */
    void access(const trace::Record &rec, sim::ShadowOutcome outcome);

    void installLine(Addr line, std::uint32_t set, bool write);
    void evictSlot(cache::CacheArray::LineRef slot);
    void completeAccess(Cycle completion);

    ColumnAssocConfig cfg_;
    cache::CacheArray main_; //!< direct-mapped storage
    /** Per-set rehash bit: the resident lives in its flipped set. */
    std::vector<bool> rehash_;
    sim::WriteBuffer writeBuffer_;
    sim::RunStats stats_;

    Cycle now_ = 0;
    Cycle procReadyAt_ = 1;
    Cycle cacheFreeAt_ = 0;
    Cycle busFreeAt_ = 0;
    bool finished_ = false;
};

/** Simulate @p t under the baseline, a shadow classifier beside it. */
sim::RunStats simulateColumnAssoc(const trace::Trace &t,
                                  const ColumnAssocConfig &cfg);

} // namespace core
} // namespace sac

#endif // SAC_CORE_COLUMN_ASSOC_HH
