#include "src/core/soft_cache.hh"

#include <algorithm>

#include "src/telemetry/set_profile.hh"
#include "src/trace/trace_source.hh"
#include "src/util/logging.hh"

namespace sac {
namespace core {

using telemetry::EventKind;

SoftwareAssistedCache::SoftwareAssistedCache(Config cfg)
    : cfg_(std::move(cfg)),
      main_((cfg_.validate(), cfg_.cacheSizeBytes), cfg_.lineBytes,
            cfg_.assoc),
      writeBuffer_(cfg_.writeBufferEntries),
      lineTransferCycles_(cfg_.timing.transferCycles(cfg_.lineBytes)),
      lineMissPenalty_(cfg_.timing.missPenalty(1, cfg_.lineBytes)),
      prefetchPenalty_(
          cfg_.timing.missPenalty(cfg_.prefetchDegree, cfg_.lineBytes))
{
    if (cfg_.auxLines > 0) {
        const std::uint32_t aux_assoc =
            cfg_.auxAssoc == 0 ? cfg_.auxLines : cfg_.auxAssoc;
        aux_.emplace(static_cast<std::uint64_t>(cfg_.auxLines) *
                         cfg_.lineBytes,
                     cfg_.lineBytes, aux_assoc);
    }
}

void
SoftwareAssistedCache::run(const trace::Trace &t)
{
    if (!cfg_.classifyMisses) {
        replay(t.data(), t.size(), nullptr);
        finish();
        return;
    }
    constexpr std::size_t chunk = trace::TraceSource::defaultChunkRecords;
    sim::MissClassifier shadow = sim::shadowClassifierOf(cfg_);
    std::vector<sim::ShadowOutcome> outcomes(std::min(chunk, t.size()));
    for (std::size_t i = 0; i < t.size(); i += chunk) {
        const std::size_t n = std::min(chunk, t.size() - i);
        shadow.classify(t.data() + i, n, outcomes.data());
        replay(t.data() + i, n, outcomes.data());
    }
    finish();
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::runBatchTmpl(const trace::Record *recs,
                                    std::size_t n,
                                    const sim::ShadowOutcome *outcomes)
{
    classifying_ = counts(F) && outcomes;
    for (std::size_t i = 0; i < n; ++i) {
        if constexpr (counts(F)) {
            if (outcomes)
                outcome_ = outcomes[i];
        }
        accessTmpl<F>(recs[i]);
        if constexpr (observes(F)) {
            if (auditor_)
                auditor_->afterAccess(*this, recs[i]);
            if (interval_)
                interval_->afterAccess(stats_, writeBuffer_.occupancy());
        }
    }
}

void
SoftwareAssistedCache::runBatch(const trace::Record *recs,
                                std::size_t n,
                                const sim::ShadowOutcome *outcomes)
{
    SAC_ASSERT(n == 0 || !finished_, "replay after finish()");
    if (warming_) {
        runBatchTmpl<Fidelity::Warming>(recs, n, nullptr);
        return;
    }
    SAC_ASSERT(outcomes || !cfg_.classifyMisses,
               "a counting replay of a classifying config needs shadow "
               "outcomes");
    if (!cfg_.classifyMisses)
        outcomes = nullptr;
    if (observed())
        runBatchTmpl<Fidelity::Observed>(recs, n, outcomes);
    else
        runBatchTmpl<Fidelity::Detailed>(recs, n, outcomes);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::accessTmpl(const trace::Record &rec)
{
    // Blocking processor: the reference issues rec.delta cycles of
    // instruction work after the previous access completed (the
    // completing cycle overlaps the first work cycle).
    now_ = procReadyAt_ + rec.delta - 1;
    if constexpr (counts(F)) {
        ++stats_.accesses;
        if (rec.isRead())
            ++stats_.reads;
        else
            ++stats_.writes;
        traceEvent<F>(EventKind::Access, now_, rec.addr, rec.isWrite());
    }

    Cycle start = std::max(now_, cacheFreeAt_);
    // The access's line and main-cache set, computed once and passed
    // down to whichever handler serves it.
    const Addr line = main_.lineAddrOf(rec.addr);
    const std::uint32_t set = main_.setIndexOf(line);

    if constexpr (observes(F)) {
        if (setProfiler_)
            setProfiler_->onAccess(set);
    }

    // Land a pending prefetch that has arrived; if this very access
    // wants the in-flight line, stall until it lands. pending_.valid
    // is only ever set by issuePrefetch, which requires cfg_.prefetch.
    if (pending_.valid) {
        if (pending_.readyAt <= start) {
            installPendingPrefetch<F>();
        } else if (aux_ && pending_.line <= line &&
                   line < pending_.line + pending_.count) {
            start = pending_.readyAt;
            installPendingPrefetch<F>();
        }
    }

    // 1. Main cache lookup.
    if (const auto way = main_.findWay(line, set)) {
        handleMainHit<F>(rec, main_.line(set, *way), start);
        return;
    }

    // 2. Bypassing of non-temporal references (Fig 3a baselines).
    if (cfg_.bypass != BypassMode::None && !rec.temporal) {
        handleBypass<F>(rec, line, start);
        return;
    }

    // 3. Aux (bounce-back / victim / prefetch buffer) lookup.
    if (aux_) {
        const std::uint32_t aux_set = aux_->setIndexOf(line);
        if (const auto way = aux_->findWay(line, aux_set)) {
            handleAuxHit<F>(rec, line, set, aux_set,
                            aux_->line(aux_set, *way), start);
            return;
        }
    }

    // 4. Demand miss.
    handleMiss<F>(rec, line, set, start);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::handleMainHit(const trace::Record &rec,
                                     cache::CacheArray::LineRef l,
                                     Cycle start)
{
    l.touch();
    if (rec.isWrite())
        l.setDirty();
    applyTemporalTag(l, rec.temporal, cfg_.temporalBits);
    l.setPrefetched(false);
    if constexpr (counts(F)) {
        ++stats_.mainHits;
        traceEvent<F>(EventKind::MainHit, start, rec.addr, 0);
    }
    const Cycle completion = start + cfg_.timing.mainHitTime;
    complete<F>(completion, completion);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::handleAuxHit(const trace::Record &rec, Addr line,
                                    std::uint32_t set,
                                    std::uint32_t aux_set,
                                    cache::CacheArray::LineRef a,
                                    Cycle start)
{
    SAC_ASSERT(aux_, "aux hit without an aux cache");
    // The prefetched bit is only ever set while installing a prefetch,
    // which requires cfg_.prefetch.
    const bool was_prefetched = a.prefetched();

    if constexpr (counts(F)) {
        ++stats_.auxHits;
        ++stats_.swaps;
        traceEvent<F>(EventKind::AuxHit, start, rec.addr, was_prefetched);
        traceEvent<F>(EventKind::Swap, start, rec.addr, 0);
        if (was_prefetched) {
            ++stats_.auxPrefetchHits;
            ++stats_.prefetchesUseful;
        }
    }

    // Swap with the resident main-cache line: the aux line moves to
    // its home set; the displaced main line takes the vacated aux
    // slot (no aux eviction happens on a swap).
    const std::uint32_t mway = main_.victimWay(set, mainPolicy());
    cache::CacheArray::LineRef m = main_.line(set, mway);
    const cache::LineState displaced = m.state();

    m.assign(a.state());
    m.setPrefetched(false);
    if (rec.isWrite())
        m.setDirty();
    applyTemporalTag(m, rec.temporal, cfg_.temporalBits);
    m.touch();

    if (displaced.valid &&
        aux_->setIndexOf(displaced.lineAddr) == aux_set) {
        a.assign(displaced);
        a.touch();
    } else {
        // The displaced line cannot live in this aux set (only
        // possible with a set-associative aux cache): discard it.
        if (displaced.valid && displaced.dirty) {
            Cycle hidden = 0;
            pushWriteback<F>(cfg_.lineBytes, hidden);
        }
        a.clear();
    }

    const Cycle completion = start + cfg_.timing.auxHitTime;
    Cycle lock = completion + cfg_.timing.swapLockCycles;
    if (was_prefetched) {
        // After the swap the main cache stays stalled one extra
        // cycle to check for the next prefetched line's presence.
        lock += cfg_.timing.prefetchHitExtraStall;
        issuePrefetch<F>(line + 1);
    }
    complete<F>(completion, lock);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::handleBypass(const trace::Record &rec, Addr line,
                                    Cycle start)
{
    const bool buffer_hit =
        cfg_.bypass == BypassMode::NonTemporalBuffered && rec.isRead() &&
        bypassBufferValid_ && bypassBufferLine_ == line;
    if constexpr (counts(F)) {
        traceEvent<F>(EventKind::Bypass, start, rec.addr, buffer_hit);
        if (!buffer_hit)
            classify<F>(rec.addr);
    }

    if (rec.isWrite()) {
        // Non-allocating write: write-through via the write buffer.
        Cycle transfer_cost = 0;
        pushWriteback<F>(rec.size, transfer_cost);
        if constexpr (counts(F))
            ++stats_.bypasses;
        const Cycle completion =
            start + cfg_.timing.mainHitTime + transfer_cost;
        complete<F>(completion, completion);
        return;
    }

    if (buffer_hit) {
        if constexpr (counts(F))
            ++stats_.bypassBufferHits;
        const Cycle completion = start + cfg_.timing.mainHitTime;
        complete<F>(completion, completion);
        return;
    }

    if constexpr (counts(F))
        ++stats_.bypasses;
    const Cycle request_sent = start + cfg_.timing.mainHitTime;
    const Cycle mem_start = std::max(request_sent, busFreeAt_);
    const std::uint64_t bytes =
        cfg_.bypass == BypassMode::NonTemporalBuffered ? cfg_.lineBytes
                                                       : rec.size;
    const Cycle data_done =
        mem_start + cfg_.timing.memoryLatency + transferCyclesOf(bytes);
    busFreeAt_ = data_done;
    if constexpr (counts(F))
        stats_.bytesFetched += bytes;
    if (cfg_.bypass == BypassMode::NonTemporalBuffered) {
        if constexpr (counts(F))
            ++stats_.linesFetched;
        bypassBufferLine_ = line;
        bypassBufferValid_ = true;
    }
    complete<F>(data_done, data_done);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::handleMiss(const trace::Record &rec, Addr line,
                                  std::uint32_t set, Cycle start)
{
    if constexpr (counts(F)) {
        ++stats_.misses;
        classify<F>(rec.addr);
    }
    if constexpr (observes(F)) {
        if (setProfiler_)
            setProfiler_->onMiss(set);
    }

    // Which physical lines must be fetched? For a spatially tagged
    // miss with virtual lines enabled, the whole aligned virtual
    // block, skipping lines already resident (the pipelined, hidden
    // coherence check of Section 2.1). The scratch vector is a member
    // so the hot path allocates only on the first miss.
    std::vector<Addr> &fetch_lines = fetchScratch_;
    fetch_lines.clear();
    if (cfg_.virtualLines && rec.spatial) {
        std::uint32_t n = cfg_.linesPerVirtualLine();
        if (cfg_.variableVirtualLines) {
            // Section 3.2 extension: the virtual line spans
            // 2^spatialLevel physical lines, capped by the config.
            const std::uint32_t wanted =
                1u << std::min<std::uint32_t>(rec.spatialLevel, 8);
            n = std::min(n, wanted);
        }
        const Addr block = line & ~static_cast<Addr>(n - 1);
        for (Addr l = block; l < block + n; ++l) {
            if (cfg_.virtualLineCoherenceCheck && main_.contains(l) &&
                l != line) {
                continue;
            }
            fetch_lines.push_back(l);
        }
    } else {
        fetch_lines.push_back(line);
    }
    SAC_ASSERT(!fetch_lines.empty() &&
                   std::find(fetch_lines.begin(), fetch_lines.end(),
                             line) != fetch_lines.end(),
               "the missed line must be fetched");

    const auto n_fetched = static_cast<std::uint32_t>(fetch_lines.size());
    const Cycle request_sent = start + cfg_.timing.mainHitTime;
    const Cycle mem_start = std::max(request_sent, busFreeAt_);
    const Cycle data_done =
        mem_start + (n_fetched == 1
                         ? lineMissPenalty_
                         : cfg_.timing.missPenalty(n_fetched, cfg_.lineBytes));
    busFreeAt_ = data_done;

    if constexpr (counts(F)) {
        stats_.linesFetched += n_fetched;
        stats_.bytesFetched +=
            static_cast<std::uint64_t>(n_fetched) * cfg_.lineBytes;
        stats_.extraLinesFetched += n_fetched - 1;
        if (n_fetched > 1)
            ++stats_.virtualLineFills;
        traceEvent<F>(EventKind::Miss, start, rec.addr, n_fetched);
    }

    // Install the fetched lines; victim transfers and bounce-backs
    // proceed while the miss is outstanding and only lengthen the
    // stall when they exceed the hidden budget.
    Cycle transfer_cost = 0;
    std::vector<FillTarget> &fill_targets = fillScratch_;
    fill_targets.clear();
    for (const Addr l : fetch_lines) {
        // Intra-fill checks only apply when the miss fetches more
        // than one line, which requires a virtual-line fill.
        //
        // Bounce-back cache coherence (Section 2.2): if another line
        // of the virtual block already sits in the aux cache, the
        // fetch cannot be aborted; its main-cache slot is simply not
        // filled (tagged invalid).
        if (l != line && aux_ && aux_->contains(l)) {
            if constexpr (counts(F))
                ++stats_.coherenceInvalidations;
            continue;
        }
        // A bounce-back triggered by an earlier fill of this very miss
        // can have re-installed a pending line already; filling it
        // again would duplicate it.
        if (l != line && main_.contains(l))
            continue;
        traceEvent<F>(EventKind::Fill, start, l * cfg_.lineBytes,
                      l == line);
        cache::CacheArray::LineRef m = insertIntoMain<F>(
            l, l == line ? set : main_.setIndexOf(l), transfer_cost,
            fill_targets);
        if (l == line) {
            if (rec.isWrite())
                m.setDirty();
            applyTemporalTag(m, rec.temporal, cfg_.temporalBits);
        }
    }

    const Cycle hidden_budget = data_done - request_sent;
    const Cycle extra =
        transfer_cost > hidden_budget ? transfer_cost - hidden_budget : 0;
    const Cycle completion = data_done + extra;

    drainWriteBuffer<F>();
    complete<F>(completion, completion);

    // Software-assisted progressive prefetching (Section 4.4): fetch
    // the physical line following the (virtual) block as well.
    if (cfg_.prefetch && (!cfg_.prefetchSpatialOnly || rec.spatial)) {
        Addr last = line;
        for (const Addr l : fetch_lines)
            last = std::max(last, l);
        issuePrefetch<F>(last + 1);
    }
}

template <SoftwareAssistedCache::Fidelity F>
cache::CacheArray::LineRef
SoftwareAssistedCache::insertIntoMain(
    Addr line_addr, std::uint32_t set, Cycle &transfer_cost,
    std::vector<FillTarget> &fill_targets)
{
    const std::uint32_t way = main_.victimWay(set, mainPolicy());
    cache::CacheArray::LineRef slot = main_.line(set, way);

    // Second-chance aging for the replacement-priority scheme: a
    // temporal line that was skipped in favor of a younger
    // non-temporal victim consumes its protection, so dead reusable
    // data cannot pin a way forever (the set-associative analogue of
    // the bounce-back bit reset).
    if (cfg_.preferNonTemporalReplacement) {
        const std::uint64_t chosen = slot.lruStamp();
        for (std::uint32_t w = 0; w < main_.assoc(); ++w) {
            cache::CacheArray::LineRef l = main_.line(set, w);
            if (w != way && l.valid() && l.temporal() &&
                l.lruStamp() < chosen) {
                l.setTemporal(false);
            }
        }
    }

    const cache::LineState victim = slot.state();

    // Register the slot before handling the victim, so a bounce-back
    // triggered by this very fill sees it as a miss target.
    fill_targets.push_back({set, way});

    cache::LineState fresh;
    fresh.lineAddr = line_addr;
    fresh.valid = true;
    slot.assign(fresh);
    slot.touch();

    if (victim.valid) {
        if constexpr (counts(F)) {
            traceEvent<F>(EventKind::Evict, now_,
                          victim.lineAddr * cfg_.lineBytes, victim.dirty);
            if constexpr (observes(F)) {
                if (setProfiler_)
                    setProfiler_->onEviction(set);
            }
        }
        if (aux_ && cfg_.auxReceivesVictims) {
            victimToAux<F>(victim, transfer_cost, fill_targets);
        } else if (victim.dirty) {
            pushWriteback<F>(cfg_.lineBytes, transfer_cost);
            transfer_cost += cfg_.timing.dirtyTransferCycles;
        }
    }
    return slot;
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::victimToAux(
    const cache::LineState &victim, Cycle &transfer_cost,
    const std::vector<FillTarget> &fill_targets)
{
    SAC_ASSERT(aux_, "victimToAux without an aux cache");
    transfer_cost += cfg_.timing.dirtyTransferCycles;

    cache::CacheArray::Insertion ins =
        aux_->insert(victim.lineAddr, cache::ReplacementPolicy::Lru);
    SAC_ASSERT(ins.slot.lineAddr() == victim.lineAddr,
               "freshly inserted aux line vanished");
    ins.slot.setDirty(victim.dirty);
    ins.slot.setTemporal(victim.temporal);
    const cache::LineState &aux_victim = ins.evicted;

    if (!aux_victim.valid)
        return;

    if (cfg_.bounceBack && aux_victim.temporal) {
        bounceBack<F>(aux_victim, transfer_cost, fill_targets);
    } else if (aux_victim.dirty) {
        pushWriteback<F>(cfg_.lineBytes, transfer_cost);
    }
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::bounceBack(
    const cache::LineState &victim, Cycle &transfer_cost,
    const std::vector<FillTarget> &fill_targets)
{
    const std::uint32_t set = main_.setIndexOf(victim.lineAddr);
    const std::uint32_t way =
        main_.victimWay(set, cache::ReplacementPolicy::Lru);

    // A bounce aimed at a slot the in-flight miss fills would be
    // overwritten anyway: cancel it so no ping-pong can occur.
    for (const auto &t : fill_targets) {
        if (t.set == set && t.way == way) {
            if constexpr (counts(F)) {
                ++stats_.bouncesCancelled;
                traceEvent<F>(EventKind::BounceCancelled, now_,
                              victim.lineAddr * cfg_.lineBytes, 0);
            }
            if (victim.dirty)
                pushWriteback<F>(cfg_.lineBytes, transfer_cost);
            return;
        }
    }

    cache::CacheArray::LineRef resident = main_.line(set, way);
    if (resident.valid() && resident.dirty() && writeBuffer_.full()) {
        // Bouncing onto a dirty line with a full write buffer is
        // aborted (Section 2.2); the victim still needs writing back.
        if constexpr (counts(F)) {
            ++stats_.bouncesAborted;
            traceEvent<F>(EventKind::BounceAborted, now_,
                          victim.lineAddr * cfg_.lineBytes, 0);
        }
        if (victim.dirty)
            pushWriteback<F>(cfg_.lineBytes, transfer_cost);
        return;
    }

    if (resident.valid() && resident.dirty())
        pushWriteback<F>(cfg_.lineBytes, transfer_cost);

    if constexpr (observes(F)) {
        // The bounce displaces whatever the chosen way held: an
        // eviction from the profiler's point of view.
        if (setProfiler_ && resident.valid())
            setProfiler_->onEviction(set);
    }
    resident.assign(victim);
    // The "dynamic adjustment" of Section 2.2: the bit must be set
    // again by a tagged reference before the line may bounce again.
    if (cfg_.resetTemporalBitOnBounce)
        resident.setTemporal(false);
    resident.setPrefetched(false);
    resident.touch();
    transfer_cost += cfg_.timing.dirtyTransferCycles;
    if constexpr (counts(F)) {
        ++stats_.bounces;
        traceEvent<F>(EventKind::Bounce, now_,
                      victim.lineAddr * cfg_.lineBytes, 0);
    }
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::pushWriteback(std::uint32_t bytes,
                                     Cycle &transfer_cost)
{
    if (writeBuffer_.full()) {
        // Forced drain on the critical path. The buffer's own stall
        // counter advances in both fidelities (it is object state the
        // warming differential compares); only the RunStats mirror is
        // fidelity-gated.
        writeBuffer_.noteFullStall();
        if constexpr (counts(F))
            ++stats_.writeBufferFullStalls;
        const std::uint32_t drained = writeBuffer_.pop();
        if constexpr (counts(F))
            stats_.bytesWrittenBack += drained;
        const Cycle cycles = transferCyclesOf(drained);
        transfer_cost += cycles;
        busFreeAt_ += cycles;
    }
    writeBuffer_.push(bytes);
    traceEvent<F>(EventKind::Writeback, now_, 0, bytes);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::drainWriteBuffer()
{
    while (writeBuffer_.occupancy() > 0) {
        const std::uint32_t bytes = writeBuffer_.pop();
        if constexpr (counts(F))
            stats_.bytesWrittenBack += bytes;
        busFreeAt_ += transferCyclesOf(bytes);
    }
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::issuePrefetch(Addr pf_line)
{
    if (!cfg_.prefetch || !aux_)
        return;
    const std::uint32_t degree = cfg_.prefetchDegree;

    // Software instrumentation makes prefetch-on-miss unnecessary:
    // skip requests whose lines are all already around.
    bool all_resident = true;
    for (Addr l = pf_line; l < pf_line + degree; ++l) {
        if (!main_.contains(l) && !aux_->contains(l) &&
            !(pending_.valid && pending_.line <= l &&
              l < pending_.line + pending_.count)) {
            all_resident = false;
            break;
        }
    }
    if (all_resident) {
        if constexpr (counts(F))
            ++stats_.prefetchesAvoided;
        return;
    }

    if (pending_.valid) {
        // Only one progressive prefetch is outstanding; land the old
        // one now if it has arrived, otherwise drop it.
        if (pending_.readyAt <= busFreeAt_)
            installPendingPrefetch<F>();
        else
            pending_.valid = false;
    }
    pending_.line = pf_line;
    pending_.count = degree;
    pending_.readyAt = busFreeAt_ + prefetchPenalty_;
    pending_.valid = true;
    busFreeAt_ = pending_.readyAt;
    if constexpr (counts(F)) {
        ++stats_.prefetchesIssued;
        traceEvent<F>(EventKind::Prefetch, now_, pf_line * cfg_.lineBytes,
                      degree);
        stats_.bytesFetched +=
            static_cast<std::uint64_t>(degree) * cfg_.lineBytes;
        stats_.linesFetched += degree;
    }
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::installPendingPrefetch()
{
    SAC_ASSERT(pending_.valid, "no pending prefetch to install");
    pending_.valid = false;
    if (!aux_)
        return;

    for (Addr l = pending_.line; l < pending_.line + pending_.count;
         ++l) {
        if (main_.contains(l) || aux_->contains(l))
            continue;

        // Resident prefetched lines enforce the limit: once it is
        // reached, a prefetched line preferably replaces another
        // prefetched line (Section 4.4). The array maintains the
        // count incrementally, so no rescan per install.
        const auto policy =
            aux_->prefetchedCount() >= cfg_.maxPrefetchedInAux
                ? cache::ReplacementPolicy::LruPreferPrefetched
                : cache::ReplacementPolicy::Lru;

        cache::CacheArray::Insertion ins = aux_->insert(l, policy);
        SAC_ASSERT(ins.slot.lineAddr() == l,
                   "freshly installed prefetch line vanished");
        ins.slot.setPrefetched(true);
        const cache::LineState &aux_victim = ins.evicted;
        traceEvent<F>(EventKind::PrefetchInstall, now_,
                      l * cfg_.lineBytes, 0);

        if (aux_victim.valid) {
            Cycle hidden = 0; // off the critical path
            if (cfg_.bounceBack && aux_victim.temporal)
                bounceBack<F>(aux_victim, hidden, {});
            else if (aux_victim.dirty)
                pushWriteback<F>(cfg_.lineBytes, hidden);
        }
    }
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::classify(Addr addr)
{
    if (!classifying_)
        return;
    switch (sim::missClassOf(outcome_)) {
      case sim::MissClass::Compulsory:
        ++stats_.compulsoryMisses;
        break;
      case sim::MissClass::Capacity:
        ++stats_.capacityMisses;
        break;
      case sim::MissClass::Conflict:
        ++stats_.conflictMisses;
        if constexpr (observes(F)) {
            if (setProfiler_) {
                setProfiler_->onConflict(
                    main_.setIndexOf(main_.lineAddrOf(addr)));
            }
        }
        break;
    }
}

void
SoftwareAssistedCache::applyTemporalTag(cache::CacheArray::LineRef line,
                                        bool tagged,
                                        bool temporal_bits_enabled)
{
    // The temporal bit is only ever set by a tagged reference; an
    // untagged reference leaves it unchanged (Section 2.2).
    if (temporal_bits_enabled && tagged)
        line.setTemporal(true);
}

template <SoftwareAssistedCache::Fidelity F>
void
SoftwareAssistedCache::complete(Cycle completion, Cycle lock_until)
{
    procReadyAt_ = completion;
    cacheFreeAt_ = std::max(cacheFreeAt_, lock_until);
    if constexpr (counts(F)) {
        stats_.totalAccessCycles +=
            static_cast<double>(completion - now_);
        stats_.completionCycle =
            std::max(stats_.completionCycle, completion);
    }
}

cache::ReplacementPolicy
SoftwareAssistedCache::mainPolicy() const
{
    return cfg_.preferNonTemporalReplacement
               ? cache::ReplacementPolicy::LruPreferNonTemporal
               : cache::ReplacementPolicy::Lru;
}

void
SoftwareAssistedCache::finish()
{
    if (finished_)
        return;
    // The final drain counts its bytes even after a warming stretch
    // (the sampled engines seal their runs that way), and the drain
    // has no observer hook, so one instantiation serves every mode.
    drainWriteBuffer<Fidelity::Detailed>();
    stats_.writeBufferFullStalls = writeBuffer_.fullStalls();
    finished_ = true;
    if (interval_ && !warming_)
        interval_->finish(stats_, writeBuffer_.occupancy());
}

sim::ArchState
SoftwareAssistedCache::exportState() const
{
    sim::ArchState s;
    s.mainLines = main_.snapshotLines();
    s.mainLruClock = main_.lruClock();
    s.hasAux = aux_.has_value();
    if (aux_) {
        s.auxLines = aux_->snapshotLines();
        s.auxLruClock = aux_->lruClock();
    }
    s.writeBuffer = writeBuffer_.snapshot();
    s.now = now_;
    s.procReadyAt = procReadyAt_;
    s.cacheFreeAt = cacheFreeAt_;
    s.busFreeAt = busFreeAt_;
    s.bypassBufferLine = bypassBufferLine_;
    s.bypassBufferValid = bypassBufferValid_;
    s.prefetchLine = pending_.line;
    s.prefetchCount = pending_.count;
    s.prefetchReadyAt = pending_.readyAt;
    s.prefetchValid = pending_.valid;
    return s;
}

void
SoftwareAssistedCache::importState(const sim::ArchState &s)
{
    SAC_ASSERT(s.hasAux == aux_.has_value(),
               "live-point aux presence does not match the config");
    main_.restoreLines(s.mainLines, s.mainLruClock);
    if (aux_)
        aux_->restoreLines(s.auxLines, s.auxLruClock);
    writeBuffer_.restore(s.writeBuffer);
    now_ = s.now;
    procReadyAt_ = s.procReadyAt;
    cacheFreeAt_ = s.cacheFreeAt;
    busFreeAt_ = s.busFreeAt;
    bypassBufferLine_ = s.bypassBufferLine;
    bypassBufferValid_ = s.bypassBufferValid;
    pending_.line = s.prefetchLine;
    pending_.count = s.prefetchCount;
    pending_.readyAt = s.prefetchReadyAt;
    pending_.valid = s.prefetchValid;
    finished_ = false;
}

bool
SoftwareAssistedCache::mainContains(Addr addr) const
{
    return main_.contains(main_.lineAddrOf(addr));
}

bool
SoftwareAssistedCache::auxContains(Addr addr) const
{
    return aux_ && aux_->contains(main_.lineAddrOf(addr));
}

bool
SoftwareAssistedCache::mainTemporalBit(Addr addr) const
{
    const auto line = main_.lineAddrOf(addr);
    const auto way = main_.findWay(line);
    if (!way)
        return false;
    return main_.line(main_.setIndexOf(line), *way).temporal;
}

bool
SoftwareAssistedCache::auxTemporalBit(Addr addr) const
{
    if (!aux_)
        return false;
    const auto line = main_.lineAddrOf(addr);
    const auto way = aux_->findWay(line);
    if (!way)
        return false;
    return aux_->line(aux_->setIndexOf(line), *way).temporal;
}

sim::RunStats
simulateTrace(const trace::Trace &t, const Config &cfg)
{
    SoftwareAssistedCache sim(cfg);
    sim.run(t);
    return sim.stats();
}

} // namespace core
} // namespace sac
