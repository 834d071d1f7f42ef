/**
 * @file
 * Behavioral tests of the software-assisted cache simulator: timing
 * accounting, virtual-line fills and coherence, victim caching,
 * bounce-back semantics (including cancellation and abort),
 * bypassing, prefetching and replacement priorities.
 *
 * Small geometries are used so scenarios are constructed by hand:
 * a 256-byte main cache has 8 sets of 32-byte lines (line n maps to
 * set n % 8), and the aux cache holds 4 lines.
 */

#include <gtest/gtest.h>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "tests/shadowed_sim.hh"

namespace {

using namespace sac;
using core::BypassMode;
using core::Config;
using test::ShadowedCache;
using trace::AccessType;
using trace::Record;

/** Byte address of physical line @p n (32-byte lines). */
constexpr Addr
lineAddr(Addr n)
{
    return n * 32;
}

Record
rec(Addr addr, std::uint16_t delta = 1, bool write = false,
    bool temporal = false, bool spatial = false)
{
    Record r;
    r.addr = addr;
    r.ref = 0;
    r.delta = delta;
    r.type = write ? AccessType::Write : AccessType::Read;
    r.temporal = temporal;
    r.spatial = spatial;
    return r;
}

/** An 8-set software-assisted cache with a 4-line bounce-back cache. */
Config
smallSoft()
{
    Config c = core::presets().get("soft");
    c.cacheSizeBytes = 256;
    c.auxLines = 4;
    c.virtualLines = false;
    return c;
}

/** Same geometry with virtual lines enabled (64 B = 2 lines). */
Config
smallSoftVl()
{
    Config c = smallSoft();
    c.virtualLines = true;
    c.virtualLineBytes = 64;
    return c;
}

/** Small plain victim-cache configuration. */
Config
smallVictim()
{
    Config c = core::presets().get("victim");
    c.cacheSizeBytes = 256;
    c.auxLines = 4;
    return c;
}

TEST(CoreTiming, SingleMissLatencyIsOnePlusPenalty)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0)));
    sim.finish();
    // 1 (hit check) + 20 (latency) + 2 (32 B over a 16 B/cy bus).
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 23.0);
    EXPECT_EQ(sim.stats().misses, 1u);
}

TEST(CoreTiming, HitAfterMissCostsOneCycle)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0)));
    sim.access(rec(lineAddr(0) + 8));
    sim.finish();
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 24.0);
    EXPECT_EQ(sim.stats().mainHits, 1u);
    EXPECT_DOUBLE_EQ(sim.stats().amat(), 12.0);
}

TEST(CoreTiming, AuxHitCostsThreeCycles)
{
    ShadowedCache sim(smallVictim());
    sim.access(rec(lineAddr(2)));  // miss
    sim.access(rec(lineAddr(10))); // same set: line 2 -> aux
    EXPECT_TRUE(sim.auxContains(lineAddr(2)));
    sim.access(rec(lineAddr(2))); // aux hit, swap
    sim.finish();
    EXPECT_EQ(sim.stats().auxHits, 1u);
    EXPECT_EQ(sim.stats().swaps, 1u);
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 23 + 23 + 3.0);
    // After the swap the roles are exchanged.
    EXPECT_TRUE(sim.mainContains(lineAddr(2)));
    EXPECT_TRUE(sim.auxContains(lineAddr(10)));
}

TEST(CoreTiming, SwapLockDelaysNextAccess)
{
    ShadowedCache sim(smallVictim());
    sim.access(rec(lineAddr(2)));
    sim.access(rec(lineAddr(10)));
    sim.access(rec(lineAddr(2)));          // aux hit at cycle 47..50
    sim.access(rec(lineAddr(2) + 8, 1));   // wants to issue at 50
    sim.finish();
    // The caches stay locked 2 extra cycles after the swap, so the
    // next hit starts at 52 and completes at 53: latency 3.
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 23 + 23 + 3 + 3.0);
}

TEST(CoreTiming, IssueDeltasSeparateAccesses)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0)));
    sim.access(rec(lineAddr(0), 50)); // issued long after the miss
    sim.finish();
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 23.0 + 1.0);
}

TEST(CoreWrites, WriteAllocatesAndWritesBackOnEviction)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0), 1, true)); // write miss, allocate
    EXPECT_TRUE(sim.mainContains(lineAddr(0)));
    sim.access(rec(lineAddr(256))); // same set: dirty line 0 evicted
    sim.finish();
    EXPECT_EQ(sim.stats().bytesWrittenBack, 32u);
}

TEST(CoreWrites, CleanEvictionWritesNothing)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0)));
    sim.access(rec(lineAddr(256)));
    sim.finish();
    EXPECT_EQ(sim.stats().bytesWrittenBack, 0u);
}

TEST(CoreVirtualLines, SpatialMissFetchesWholeBlock)
{
    ShadowedCache sim(smallSoftVl());
    sim.access(rec(lineAddr(0), 1, false, false, true));
    sim.finish();
    EXPECT_TRUE(sim.mainContains(lineAddr(0)));
    EXPECT_TRUE(sim.mainContains(lineAddr(1)));
    EXPECT_EQ(sim.stats().linesFetched, 2u);
    EXPECT_EQ(sim.stats().extraLinesFetched, 1u);
    EXPECT_EQ(sim.stats().virtualLineFills, 1u);
    // 1 + 20 + 64/16 = 25 cycles.
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 25.0);
}

TEST(CoreVirtualLines, BlockIsAligned)
{
    ShadowedCache sim(smallSoftVl());
    // A miss on line 3 fetches the aligned block {2, 3}, not {3, 4}.
    sim.access(rec(lineAddr(3), 1, false, false, true));
    sim.finish();
    EXPECT_TRUE(sim.mainContains(lineAddr(2)));
    EXPECT_TRUE(sim.mainContains(lineAddr(3)));
    EXPECT_FALSE(sim.mainContains(lineAddr(4)));
}

TEST(CoreVirtualLines, ResidentLinesAreNotRefetched)
{
    ShadowedCache sim(smallSoftVl());
    sim.access(rec(lineAddr(1)));
    const auto fetched_before = sim.stats().linesFetched;
    sim.access(rec(lineAddr(0), 1, false, false, true));
    sim.finish();
    // Only line 0 is missing from the virtual block {0, 1}.
    EXPECT_EQ(sim.stats().linesFetched - fetched_before, 1u);
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 23 + 23.0);
}

TEST(CoreVirtualLines, NonSpatialMissFetchesOneLine)
{
    ShadowedCache sim(smallSoftVl());
    sim.access(rec(lineAddr(0), 1, false, false, false));
    sim.finish();
    EXPECT_EQ(sim.stats().linesFetched, 1u);
    EXPECT_FALSE(sim.mainContains(lineAddr(1)));
}

TEST(CoreVirtualLines, StandardConfigIgnoresSpatialTags)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0), 1, false, false, true));
    sim.finish();
    EXPECT_EQ(sim.stats().linesFetched, 1u);
    EXPECT_FALSE(sim.mainContains(lineAddr(1)));
}

TEST(CoreVirtualLines, AuxResidentLineInvalidatesFillNotFetch)
{
    ShadowedCache sim(smallSoftVl());
    // Park line 1 in the aux cache: load it, then displace it.
    sim.access(rec(lineAddr(1)));
    sim.access(rec(lineAddr(9))); // same set -> line 1 to aux
    ASSERT_TRUE(sim.auxContains(lineAddr(1)));
    const auto fetched_before = sim.stats().linesFetched;

    // Spatial miss on line 0: block {0, 1}; line 1 is in the aux
    // cache, so its main-cache fill is dropped but the fetch already
    // went out (Section 2.2 coherence).
    sim.access(rec(lineAddr(0), 1, false, false, true));
    sim.finish();
    EXPECT_EQ(sim.stats().coherenceInvalidations, 1u);
    EXPECT_EQ(sim.stats().linesFetched - fetched_before, 2u);
    EXPECT_TRUE(sim.mainContains(lineAddr(0)));
    EXPECT_FALSE(sim.mainContains(lineAddr(1)));
    EXPECT_TRUE(sim.auxContains(lineAddr(1)));
}

TEST(CoreVictim, AllVictimsEnterAuxCleanOrDirty)
{
    ShadowedCache sim(smallVictim());
    sim.access(rec(lineAddr(2), 1, true)); // dirty
    sim.access(rec(lineAddr(10)));
    EXPECT_TRUE(sim.auxContains(lineAddr(2)));
    sim.access(rec(lineAddr(3))); // clean
    sim.access(rec(lineAddr(11)));
    sim.finish();
    EXPECT_TRUE(sim.auxContains(lineAddr(3)));
}

TEST(CoreVictim, PlainVictimDiscardsLruWithoutBounce)
{
    ShadowedCache sim(smallVictim());
    // Fill the 4-line aux with victims from sets 2..5.
    for (Addr s = 2; s <= 5; ++s) {
        sim.access(rec(lineAddr(s)));
        sim.access(rec(lineAddr(s + 8)));
    }
    ASSERT_TRUE(sim.auxContains(lineAddr(2)));
    // One more victim evicts line 2 (LRU) for good.
    sim.access(rec(lineAddr(6)));
    sim.access(rec(lineAddr(14)));
    sim.finish();
    EXPECT_FALSE(sim.auxContains(lineAddr(2)));
    EXPECT_FALSE(sim.mainContains(lineAddr(2)));
    EXPECT_EQ(sim.stats().bounces, 0u);
}

TEST(CoreBounceBack, TemporalLineBouncesBackToMainCache)
{
    ShadowedCache sim(smallSoft());
    sim.access(rec(lineAddr(2), 1, false, true)); // temporal
    EXPECT_TRUE(sim.mainTemporalBit(lineAddr(2)));
    sim.access(rec(lineAddr(10))); // line 2 -> aux
    ASSERT_TRUE(sim.auxTemporalBit(lineAddr(2)));
    // Three more victims fill the aux cache behind line 2.
    for (Addr s = 3; s <= 5; ++s) {
        sim.access(rec(lineAddr(s)));
        sim.access(rec(lineAddr(s + 8)));
    }
    // The next victim evicts line 2 from the aux cache: it bounces
    // back to set 2, displacing the clean resident line 10.
    sim.access(rec(lineAddr(6)));
    sim.access(rec(lineAddr(14)));
    sim.finish();
    EXPECT_EQ(sim.stats().bounces, 1u);
    EXPECT_TRUE(sim.mainContains(lineAddr(2)));
    EXPECT_FALSE(sim.auxContains(lineAddr(2)));
    EXPECT_FALSE(sim.mainContains(lineAddr(10)));
    // The temporal bit is reset on a bounce (Section 2.2).
    EXPECT_FALSE(sim.mainTemporalBit(lineAddr(2)));
}

TEST(CoreBounceBack, NonTemporalAuxVictimIsDiscarded)
{
    ShadowedCache sim(smallSoft());
    sim.access(rec(lineAddr(2))); // no temporal tag
    sim.access(rec(lineAddr(10)));
    for (Addr s = 3; s <= 6; ++s) {
        sim.access(rec(lineAddr(s)));
        sim.access(rec(lineAddr(s + 8)));
    }
    sim.finish();
    EXPECT_EQ(sim.stats().bounces, 0u);
    EXPECT_FALSE(sim.mainContains(lineAddr(2)));
    EXPECT_FALSE(sim.auxContains(lineAddr(2)));
}

TEST(CoreBounceBack, BounceAimedAtMissTargetIsCancelled)
{
    ShadowedCache sim(smallSoft());
    sim.access(rec(lineAddr(2), 1, false, true)); // temporal
    sim.access(rec(lineAddr(10)));                // line 2 -> aux
    for (Addr s = 3; s <= 5; ++s) {               // fill aux
        sim.access(rec(lineAddr(s)));
        sim.access(rec(lineAddr(s + 8)));
    }
    // Miss on line 18 (set 2): its victim line 10 displaces line 2
    // from the aux cache, whose bounce would land exactly in the slot
    // this miss fills. No ping-pong: the bounce is cancelled.
    sim.access(rec(lineAddr(18)));
    sim.finish();
    EXPECT_EQ(sim.stats().bouncesCancelled, 1u);
    EXPECT_EQ(sim.stats().bounces, 0u);
    EXPECT_TRUE(sim.mainContains(lineAddr(18)));
    EXPECT_TRUE(sim.auxContains(lineAddr(10)));
    EXPECT_FALSE(sim.mainContains(lineAddr(2)));
    EXPECT_FALSE(sim.auxContains(lineAddr(2)));
}

TEST(CoreBounceBack, BounceOntoDirtyLineAbortsWhenBufferFull)
{
    Config cfg = smallSoftVl();
    cfg.writeBufferEntries = 1;
    ShadowedCache sim(cfg);

    sim.access(rec(lineAddr(5)));          // victim-to-be in set 5
    sim.access(rec(lineAddr(1), 1, true)); // X1, dirty
    sim.access(rec(lineAddr(9)));          // X1 -> aux (dirty, LRU)
    sim.access(rec(lineAddr(2), 1, false, true)); // A, temporal
    sim.access(rec(lineAddr(10)));         // A -> aux
    sim.access(rec(lineAddr(3)));
    sim.access(rec(lineAddr(11)));         // line 3 -> aux
    sim.access(rec(lineAddr(4)));
    sim.access(rec(lineAddr(20)));         // line 4 -> aux (aux full)
    sim.access(rec(lineAddr(10), 1, true)); // dirty resident in set 2

    // Spatial miss on block {12, 13}: the first fill displaces the
    // dirty X1 into the (1-entry) write buffer; the second fill
    // displaces A, whose bounce targets the dirty line 10 while the
    // buffer is full -> aborted.
    sim.access(rec(lineAddr(12), 1, false, false, true));
    sim.finish();
    EXPECT_EQ(sim.stats().bouncesAborted, 1u);
    EXPECT_EQ(sim.stats().bounces, 0u);
    EXPECT_TRUE(sim.mainContains(lineAddr(10)));
    EXPECT_FALSE(sim.mainContains(lineAddr(2)));
    EXPECT_FALSE(sim.auxContains(lineAddr(2)));
    // X1's dirty line was drained eventually.
    EXPECT_EQ(sim.stats().bytesWrittenBack, 32u);
}

TEST(CoreBounceBack, SwapPreservesTemporalAndDirtyBits)
{
    ShadowedCache sim(smallSoft());
    sim.access(rec(lineAddr(2), 1, true, true)); // dirty + temporal
    sim.access(rec(lineAddr(10)));               // -> aux
    sim.access(rec(lineAddr(2)));                // swap back, untagged
    EXPECT_TRUE(sim.mainTemporalBit(lineAddr(2)));
    // Evicting it again must write it back (dirty preserved).
    sim.access(rec(lineAddr(10))); // aux hit, swap again
    sim.finish();
    EXPECT_TRUE(sim.auxTemporalBit(lineAddr(2)));
}

TEST(CoreTemporalBits, UntaggedAccessLeavesBitUnchanged)
{
    ShadowedCache sim(smallSoft());
    sim.access(rec(lineAddr(2), 1, false, true));
    sim.access(rec(lineAddr(2), 1, false, false));
    EXPECT_TRUE(sim.mainTemporalBit(lineAddr(2)));
}

TEST(CoreTemporalBits, DisabledWhenConfigOff)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(2), 1, false, true));
    EXPECT_FALSE(sim.mainTemporalBit(lineAddr(2)));
}

TEST(CoreBypass, NonTemporalReadDoesNotAllocate)
{
    ShadowedCache sim(core::presets().get("bypass"));
    sim.access(rec(lineAddr(0)));
    sim.finish();
    EXPECT_EQ(sim.stats().bypasses, 1u);
    EXPECT_EQ(sim.stats().misses, 0u);
    EXPECT_FALSE(sim.mainContains(lineAddr(0)));
    // Only the 8 requested bytes travel: 1 + 20 + 1 cycles.
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 22.0);
    EXPECT_EQ(sim.stats().bytesFetched, 8u);
}

TEST(CoreBypass, TemporalReferencesStillAllocate)
{
    ShadowedCache sim(core::presets().get("bypass"));
    sim.access(rec(lineAddr(0), 1, false, true));
    sim.finish();
    EXPECT_EQ(sim.stats().misses, 1u);
    EXPECT_TRUE(sim.mainContains(lineAddr(0)));
}

TEST(CoreBypass, BufferedBypassRecoversSpatialLocality)
{
    ShadowedCache sim(core::presets().get("bypass-buffer"));
    for (Addr off = 0; off < 32; off += 8)
        sim.access(rec(lineAddr(0) + off));
    sim.finish();
    EXPECT_EQ(sim.stats().bypasses, 1u); // one line fetch
    EXPECT_EQ(sim.stats().bypassBufferHits, 3u);
    EXPECT_EQ(sim.stats().bytesFetched, 32u);
    // 23 + 3 * 1 cycles.
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 26.0);
}

TEST(CoreBypass, BufferThrashesOnInterleavedStreams)
{
    ShadowedCache sim(core::presets().get("bypass-buffer"));
    // Two interleaved streams evict each other from the one-line
    // buffer: every access refetches.
    for (int i = 0; i < 4; ++i) {
        sim.access(rec(lineAddr(0) + 8 * i));
        sim.access(rec(lineAddr(100) + 8 * i));
    }
    sim.finish();
    EXPECT_EQ(sim.stats().bypassBufferHits, 0u);
    EXPECT_EQ(sim.stats().bypasses, 8u);
}

TEST(CoreBypass, NonTemporalWriteGoesThroughWriteBuffer)
{
    ShadowedCache sim(core::presets().get("bypass"));
    sim.access(rec(lineAddr(0), 1, true));
    sim.finish();
    EXPECT_EQ(sim.stats().bypasses, 1u);
    EXPECT_FALSE(sim.mainContains(lineAddr(0)));
    EXPECT_EQ(sim.stats().bytesWrittenBack, 8u);
}

TEST(CorePrefetch, SpatialMissTriggersNextLinePrefetch)
{
    ShadowedCache sim(core::presets().get("soft-prefetch"));
    sim.access(rec(lineAddr(0), 1, false, false, true));
    sim.finish();
    // Virtual block {0,1} fetched; line 2 prefetched.
    EXPECT_EQ(sim.stats().prefetchesIssued, 1u);
    EXPECT_EQ(sim.stats().linesFetched, 3u);
}

TEST(CorePrefetch, PrefetchedLineHitsInAuxAndChains)
{
    ShadowedCache sim(core::presets().get("soft-prefetch"));
    sim.access(rec(lineAddr(0), 1, false, false, true));
    // Far enough in the future for the prefetch to land.
    sim.access(rec(lineAddr(2), 200, false, false, true));
    sim.finish();
    EXPECT_EQ(sim.stats().auxPrefetchHits, 1u);
    EXPECT_EQ(sim.stats().prefetchesUseful, 1u);
    // The hit triggered the progressive prefetch of line 3.
    EXPECT_EQ(sim.stats().prefetchesIssued, 2u);
    EXPECT_TRUE(sim.mainContains(lineAddr(2)));
}

TEST(CorePrefetch, DemandStallsOnInFlightPrefetch)
{
    ShadowedCache sim(core::presets().get("soft-prefetch"));
    sim.access(rec(lineAddr(0), 1, false, false, true));
    // Issued immediately after: the prefetch of line 2 is still in
    // flight, so the access waits for it instead of re-fetching.
    sim.access(rec(lineAddr(2), 1, false, false, true));
    sim.finish();
    EXPECT_EQ(sim.stats().misses, 1u);
    EXPECT_EQ(sim.stats().auxPrefetchHits, 1u);
}

TEST(CorePrefetch, SpatialOnlyGateRespectsTags)
{
    ShadowedCache sim(core::presets().get("soft-prefetch"));
    sim.access(rec(lineAddr(0), 1, false, false, false));
    sim.finish();
    EXPECT_EQ(sim.stats().prefetchesIssued, 0u);
}

TEST(CorePrefetch, StandardPrefetchFiresOnEveryMiss)
{
    ShadowedCache sim(core::presets().get("standard-prefetch"));
    sim.access(rec(lineAddr(0)));
    sim.finish();
    EXPECT_EQ(sim.stats().prefetchesIssued, 1u);
}

TEST(CorePrefetch, StandardPrefetchVictimsDoNotEnterAux)
{
    ShadowedCache sim(core::presets().get("standard-prefetch"));
    sim.access(rec(lineAddr(0)));
    sim.access(rec(lineAddr(256))); // evicts line 0
    sim.finish();
    EXPECT_FALSE(sim.auxContains(lineAddr(0)));
}

TEST(CoreReplacement, SimplifiedSoftPrefersNonTemporalVictims)
{
    Config cfg = core::presets().get("simplified-soft-2way");
    cfg.cacheSizeBytes = 512; // 8 sets x 2 ways
    cfg.virtualLines = false;
    ShadowedCache sim(cfg);
    sim.access(rec(lineAddr(2), 1, false, true)); // temporal, older
    sim.access(rec(lineAddr(10)));                // non-temporal
    sim.access(rec(lineAddr(18)));                // set 2 is full
    sim.finish();
    EXPECT_TRUE(sim.mainContains(lineAddr(2)));   // temporal survives
    EXPECT_FALSE(sim.mainContains(lineAddr(10)));
    EXPECT_TRUE(sim.mainContains(lineAddr(18)));
}

TEST(CoreReplacement, PlainTwoWayEvictsLru)
{
    Config cfg = core::presets().get("2way");
    cfg.cacheSizeBytes = 512;
    ShadowedCache sim(cfg);
    sim.access(rec(lineAddr(2), 1, false, true));
    sim.access(rec(lineAddr(10)));
    sim.access(rec(lineAddr(18)));
    sim.finish();
    EXPECT_FALSE(sim.mainContains(lineAddr(2))); // LRU, tags ignored
    EXPECT_TRUE(sim.mainContains(lineAddr(10)));
}

TEST(CoreStats, HitMissBypassPartitionAccesses)
{
    ShadowedCache sim(smallSoft());
    for (Addr i = 0; i < 64; ++i)
        sim.access(rec(lineAddr(i % 16) + (i % 4) * 8, 2, i % 3 == 0,
                       i % 5 == 0, i % 2 == 0));
    sim.finish();
    const auto &s = sim.stats();
    EXPECT_EQ(s.accesses, 64u);
    EXPECT_EQ(s.mainHits + s.auxHits + s.misses + s.bypasses +
                  s.bypassBufferHits,
              s.accesses);
}

TEST(CoreStats, MissClassesSumToMisses)
{
    ShadowedCache sim(core::presets().get("standard"));
    for (Addr i = 0; i < 2000; ++i)
        sim.access(rec(lineAddr((i * 7) % 512) + (i % 4) * 8));
    sim.finish();
    const auto &s = sim.stats();
    EXPECT_GT(s.misses, 0u);
    EXPECT_EQ(s.compulsoryMisses + s.capacityMisses + s.conflictMisses,
              s.misses);
}

TEST(CoreStats, DeterministicAcrossRuns)
{
    trace::Trace t("d");
    for (Addr i = 0; i < 500; ++i)
        t.push(rec(lineAddr((i * 13) % 64) + (i % 4) * 8,
                   static_cast<std::uint16_t>(1 + i % 7), i % 3 == 0,
                   i % 4 == 0, i % 2 == 0));
    const auto a = core::simulateTrace(t, core::presets().get("soft"));
    const auto b = core::simulateTrace(t, core::presets().get("soft"));
    EXPECT_EQ(a.totalAccessCycles, b.totalAccessCycles);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.bounces, b.bounces);
    EXPECT_EQ(a.bytesFetched, b.bytesFetched);
}

TEST(CoreConfig, ValidateRejectsBadGeometry)
{
    Config c = core::presets().get("standard");
    c.lineBytes = 48; // not a power of two
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "power of two");
}

TEST(CoreConfig, ValidateRejectsBounceBackWithoutAux)
{
    Config c = core::presets().get("standard");
    c.bounceBack = true;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "aux");
}

TEST(CoreConfig, ValidateRejectsBadVirtualLine)
{
    Config c = core::presets().get("soft");
    c.virtualLineBytes = 48;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "virtual line");
}

TEST(CoreConfig, FactoryConfigsAreValid)
{
    // Every named configuration must pass validation.
    core::presets().get("standard").validate();
    core::standardWithLineSize(64).validate();
    core::presets().get("victim").validate();
    core::presets().get("soft").validate();
    core::presets().get("soft-temporal").validate();
    core::presets().get("soft-spatial").validate();
    core::softWithVirtualLineSize(128).validate();
    core::presets().get("bypass").validate();
    core::presets().get("bypass-buffer").validate();
    core::presets().get("2way").validate();
    core::presets().get("2way-victim").validate();
    core::presets().get("soft-2way").validate();
    core::presets().get("simplified-soft-2way").validate();
    core::presets().get("standard-prefetch").validate();
    core::presets().get("soft-prefetch").validate();
    core::scaledConfig(core::presets().get("soft"), 65536, 64).validate();
}

TEST(CoreConfig, ScaledConfigAdjustsVirtualLine)
{
    const Config c = core::scaledConfig(core::presets().get("soft"), 65536, 64);
    EXPECT_EQ(c.cacheSizeBytes, 65536u);
    EXPECT_EQ(c.lineBytes, 64u);
    EXPECT_GE(c.virtualLineBytes, 128u);
}

TEST(CoreLifecycle, AccessAfterFinishPanics)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0)));
    sim.finish();
    EXPECT_DEATH(sim.access(rec(lineAddr(1))), "finish");
}

TEST(CoreLifecycle, FinishIsIdempotent)
{
    ShadowedCache sim(core::presets().get("standard"));
    sim.access(rec(lineAddr(0), 1, true));
    sim.access(rec(lineAddr(256)));
    sim.finish();
    const auto bytes = sim.stats().bytesWrittenBack;
    sim.finish();
    EXPECT_EQ(sim.stats().bytesWrittenBack, bytes);
}

} // namespace
