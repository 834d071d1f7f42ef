#include "src/core/column_assoc.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace sac {
namespace core {

ColumnAssocCache::ColumnAssocCache(ColumnAssocConfig cfg)
    : cfg_(std::move(cfg)),
      main_(cfg_.cacheSizeBytes, cfg_.lineBytes, 1),
      writeBuffer_(cfg_.writeBufferEntries)
{
    SAC_ASSERT(main_.numSets() >= 2,
               "column associativity needs at least two sets");
    rehash_.assign(main_.numSets(), false);
}

std::uint32_t
ColumnAssocCache::primarySet(Addr line) const
{
    return static_cast<std::uint32_t>(line & (main_.numSets() - 1));
}

std::uint32_t
ColumnAssocCache::alternateSet(Addr line) const
{
    // Flip the most significant index bit (the b-th bit selects the
    // "column").
    return primarySet(line) ^ (main_.numSets() / 2);
}

void
ColumnAssocCache::replay(const trace::Record *recs, std::size_t n,
                         const sim::ShadowOutcome *outcomes)
{
    SAC_ASSERT(n == 0 || !finished_, "replay after finish()");
    SAC_ASSERT(outcomes,
               "a counting replay of a classifying config needs shadow "
               "outcomes");
    for (std::size_t i = 0; i < n; ++i)
        access(recs[i], outcomes[i]);
}

void
ColumnAssocCache::access(const trace::Record &rec,
                         sim::ShadowOutcome outcome)
{
    now_ = procReadyAt_ + rec.delta - 1;
    ++stats_.accesses;
    if (rec.isRead())
        ++stats_.reads;
    else
        ++stats_.writes;

    const Cycle start = std::max(now_, cacheFreeAt_);
    const Addr line = main_.lineAddrOf(rec.addr);
    const std::uint32_t sp = primarySet(line);
    const std::uint32_t sa = alternateSet(line);

    cache::CacheArray::LineRef p = main_.line(sp, 0);
    cache::CacheArray::LineRef a = main_.line(sa, 0);

    // First probe: the primary set.
    if (p.valid() && p.lineAddr() == line) {
        if (rec.isWrite())
            p.setDirty();
        ++stats_.mainHits;
        completeAccess(start + cfg_.timing.mainHitTime);
        return;
    }

    // If the primary resident is itself a rehashed alias, the second
    // probe is skipped and the alias is replaced in place — the
    // rehash bit is what stops demotion cascades from polluting
    // other sets (Agarwal & Pudar's key refinement).
    const bool primary_is_alias = p.valid() && rehash_[sp];

    // Second probe: the alternate set; a hit swaps the lines so the
    // hot one is found first next time.
    if (!primary_is_alias && a.valid() && a.lineAddr() == line &&
        rehash_[sa]) {
        const cache::LineState was_primary = p.state();
        p.assign(a.state());
        a.assign(was_primary);
        rehash_[sp] = false;
        rehash_[sa] = a.valid();
        if (rec.isWrite())
            p.setDirty();
        ++stats_.auxHits;
        ++stats_.swaps;
        const Cycle completion =
            start + cfg_.timing.mainHitTime + cfg_.rehashProbeCycles;
        // The swap holds the array one extra cycle.
        stats_.totalAccessCycles +=
            static_cast<double>(completion - now_);
        procReadyAt_ = completion;
        cacheFreeAt_ = std::max(cacheFreeAt_, completion + 1);
        stats_.completionCycle =
            std::max(stats_.completionCycle, completion);
        return;
    }

    // Miss: the primary resident retreats to the alternate set
    // (clobbering its occupant), the new line fills the primary set.
    ++stats_.misses;
    switch (sim::missClassOf(outcome)) {
      case sim::MissClass::Compulsory:
        ++stats_.compulsoryMisses;
        break;
      case sim::MissClass::Capacity:
        ++stats_.capacityMisses;
        break;
      case sim::MissClass::Conflict:
        ++stats_.conflictMisses;
        break;
    }

    // The second probe is skipped when the rehash bit already says
    // the primary resident is an alias, so such misses start early.
    const Cycle request_sent =
        start + cfg_.timing.mainHitTime +
        (primary_is_alias ? 0 : cfg_.rehashProbeCycles);
    const Cycle mem_start = std::max(request_sent, busFreeAt_);
    const Cycle data_done =
        mem_start + cfg_.timing.missPenalty(1, cfg_.lineBytes);
    busFreeAt_ = data_done;
    ++stats_.linesFetched;
    stats_.bytesFetched += cfg_.lineBytes;

    if (primary_is_alias) {
        // Replace the alias in place; the alternate set is untouched.
        evictSlot(p);
    } else {
        evictSlot(a);
        if (p.valid()) {
            a.assign(p.state()); // demote the primary resident
            rehash_[sa] = true;
        }
    }
    cache::LineState fresh;
    fresh.lineAddr = line;
    fresh.valid = true;
    fresh.dirty = rec.isWrite();
    p.assign(fresh);
    rehash_[sp] = false;

    while (writeBuffer_.occupancy() > 0) {
        const auto bytes = writeBuffer_.pop();
        stats_.bytesWrittenBack += bytes;
        busFreeAt_ += cfg_.timing.transferCycles(bytes);
    }
    completeAccess(data_done);
}

void
ColumnAssocCache::evictSlot(cache::CacheArray::LineRef slot)
{
    if (!slot.valid())
        return;
    if (slot.dirty()) {
        if (writeBuffer_.full()) {
            writeBuffer_.noteFullStall();
            ++stats_.writeBufferFullStalls;
            const auto bytes = writeBuffer_.pop();
            stats_.bytesWrittenBack += bytes;
            busFreeAt_ += cfg_.timing.transferCycles(bytes);
        }
        writeBuffer_.push(cfg_.lineBytes);
    }
    slot.clear();
}

void
ColumnAssocCache::completeAccess(Cycle completion)
{
    stats_.totalAccessCycles += static_cast<double>(completion - now_);
    procReadyAt_ = completion;
    cacheFreeAt_ = std::max(cacheFreeAt_, completion);
    stats_.completionCycle =
        std::max(stats_.completionCycle, completion);
}

void
ColumnAssocCache::finish()
{
    if (finished_)
        return;
    while (writeBuffer_.occupancy() > 0)
        stats_.bytesWrittenBack += writeBuffer_.pop();
    finished_ = true;
}

bool
ColumnAssocCache::contains(Addr addr) const
{
    const Addr line = main_.lineAddrOf(addr);
    const auto &p = main_.line(primarySet(line), 0);
    const auto &a = main_.line(alternateSet(line), 0);
    return (p.valid && p.lineAddr == line) ||
           (a.valid && a.lineAddr == line);
}

bool
ColumnAssocCache::inPrimarySet(Addr addr) const
{
    const Addr line = main_.lineAddrOf(addr);
    const auto &p = main_.line(primarySet(line), 0);
    return p.valid && p.lineAddr == line;
}

sim::RunStats
simulateColumnAssoc(const trace::Trace &t,
                    const ColumnAssocConfig &cfg)
{
    std::vector<sim::ShadowOutcome> outcomes(t.size());
    sim::shadowClassifierOf(cfg).classify(t.data(), t.size(),
                                          outcomes.data());
    ColumnAssocCache sim(cfg);
    sim.replay(t.data(), t.size(), outcomes.data());
    sim.finish();
    return sim.stats();
}

} // namespace core
} // namespace sac
