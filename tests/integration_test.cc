/**
 * @file
 * End-to-end integration tests: the paper's headline claims must hold
 * on the reproduced benchmarks.
 *
 *  - software-assisted caches beat the standard cache on every
 *    benchmark ("software-assistance appears to be safe", Sec. 3.2);
 *  - the combined mechanism beats each mechanism alone;
 *  - raw bypassing is much worse than a standard cache (Fig 3a);
 *  - memory traffic of the full mechanism stays close to standard
 *    (Fig 7a);
 *  - the gain grows with memory latency (Fig 10b);
 *  - larger caches still benefit, but less (Fig 9a).
 *
 * Benchmarks are scaled down where acceptable to keep the suite fast.
 */

#include <gtest/gtest.h>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/workloads/workloads.hh"
#include "tests/shadowed_sim.hh"

namespace {

using namespace sac;
using core::simulateTrace;

const trace::Trace &
mvTrace()
{
    static const trace::Trace t = workloads::makeBenchmarkTrace("MV");
    return t;
}

TEST(Integration, SoftBeatsStandardOnEveryBenchmark)
{
    for (const auto &b : workloads::paperBenchmarks()) {
        const auto t = workloads::makeBenchmarkTrace(b.name);
        const auto stand = simulateTrace(t, core::presets().get("standard"));
        const auto soft = simulateTrace(t, core::presets().get("soft"));
        EXPECT_LE(soft.amat(), stand.amat() * 1.01) << b.name;
        EXPECT_LE(soft.missRatio(), stand.missRatio() * 1.05) << b.name;
    }
}

TEST(Integration, CombinedBeatsEachMechanismAloneOnMv)
{
    const auto &t = mvTrace();
    const auto stand = simulateTrace(t, core::presets().get("standard"));
    const auto temp = simulateTrace(t, core::presets().get("soft-temporal"));
    const auto spat = simulateTrace(t, core::presets().get("soft-spatial"));
    const auto soft = simulateTrace(t, core::presets().get("soft"));
    EXPECT_LT(temp.amat(), stand.amat());
    EXPECT_LT(spat.amat(), stand.amat());
    EXPECT_LE(soft.amat(), temp.amat());
    EXPECT_LE(soft.amat(), spat.amat());
}

TEST(Integration, MvMissRatioReductionIsLarge)
{
    // The paper reports up to a 62% miss-ratio reduction for MV.
    const auto &t = mvTrace();
    const auto stand = simulateTrace(t, core::presets().get("standard"));
    const auto soft = simulateTrace(t, core::presets().get("soft"));
    EXPECT_LT(soft.missRatio(), stand.missRatio() * 0.6);
}

TEST(Integration, MostHitsAreMainCacheHits)
{
    // Figure 6b: the bounce-back mechanism keeps hot data in the
    // main cache, so aux hits stay a small share.
    const auto soft = simulateTrace(mvTrace(), core::presets().get("soft"));
    EXPECT_GT(soft.mainHitShare(), 0.85);
}

TEST(Integration, RawBypassIsWorseThanStandard)
{
    // Figure 3a: bypassing cannot exploit spatial locality and
    // performs poorly.
    const auto &t = mvTrace();
    const auto stand = simulateTrace(t, core::presets().get("standard"));
    const auto bypass = simulateTrace(t, core::presets().get("bypass"));
    EXPECT_GT(bypass.amat(), stand.amat() * 1.5);
    // The buffered variant recovers part of the loss.
    const auto buffered = simulateTrace(t, core::presets().get("bypass-buffer"));
    EXPECT_LT(buffered.amat(), bypass.amat());
}

TEST(Integration, VictimCacheHelpsButLessThanSoft)
{
    const auto &t = mvTrace();
    const auto stand = simulateTrace(t, core::presets().get("standard"));
    const auto victim = simulateTrace(t, core::presets().get("victim"));
    const auto soft = simulateTrace(t, core::presets().get("soft"));
    EXPECT_LE(victim.amat(), stand.amat());
    EXPECT_LT(soft.amat(), victim.amat());
}

TEST(Integration, SoftTrafficStaysNearStandard)
{
    // Figure 7a: virtual lines alone raise traffic; the combined
    // mechanism barely does.
    const auto &t = mvTrace();
    const auto stand = simulateTrace(t, core::presets().get("standard"));
    const auto soft = simulateTrace(t, core::presets().get("soft"));
    EXPECT_LT(soft.wordsFetchedPerAccess(),
              stand.wordsFetchedPerAccess() * 1.25);
}

TEST(Integration, GainGrowsWithMemoryLatency)
{
    // Figure 10b: the AMAT gap increases very regularly with the
    // memory latency beyond ~10 cycles.
    const auto &t = mvTrace();
    double prev_gap = -1e9;
    for (const Cycle lat : {10u, 20u, 30u}) {
        auto stand = core::presets().get("standard");
        auto soft = core::presets().get("soft");
        stand.timing.memoryLatency = lat;
        soft.timing.memoryLatency = lat;
        const double gap = simulateTrace(t, stand).amat() -
                           simulateTrace(t, soft).amat();
        EXPECT_GT(gap, prev_gap) << "latency " << lat;
        prev_gap = gap;
    }
}

TEST(Integration, LargerCachesBenefitLess)
{
    // Figure 9a: the relative improvement shrinks as the cache grows.
    const auto &t = mvTrace();
    auto removed = [&](std::uint64_t bytes, std::uint32_t line) {
        const auto stand = simulateTrace(
            t, core::scaledConfig(core::presets().get("standard"), bytes, line));
        const auto soft = simulateTrace(
            t, core::scaledConfig(core::presets().get("soft"), bytes, line));
        return 1.0 - static_cast<double>(soft.misses) /
                         static_cast<double>(stand.misses);
    };
    const double small = removed(8 * 1024, 32);
    const double large = removed(64 * 1024, 64);
    EXPECT_GT(small, 0.0);
    EXPECT_GE(small, large - 0.05);
}

TEST(Integration, SetAssociativeSoftControlHelps)
{
    // Figure 9b: software control still improves a 2-way cache, and
    // the simplified (replacement-priority) variant is competitive.
    const auto &t = mvTrace();
    const auto two_way = simulateTrace(t, core::presets().get("2way"));
    const auto soft2 = simulateTrace(t, core::presets().get("soft-2way"));
    const auto simpl =
        simulateTrace(t, core::presets().get("simplified-soft-2way"));
    EXPECT_LT(soft2.amat(), two_way.amat());
    EXPECT_LT(simpl.amat(), two_way.amat());
}

TEST(Integration, PrefetchingHidesVectorMisses)
{
    // Figure 12: prefetching lowers AMAT further on streaming codes.
    const auto &t = mvTrace();
    const auto soft = simulateTrace(t, core::presets().get("soft"));
    const auto soft_pf = simulateTrace(t, core::presets().get("soft-prefetch"));
    EXPECT_LT(soft_pf.amat(), soft.amat());
    EXPECT_GT(soft_pf.prefetchesUseful, 0u);
}

TEST(Integration, SpMvScarceLocalityIsExploited)
{
    // Section 4.1: avoiding pollution by the matrix and index arrays
    // exploits the scarce reuse of X.
    const auto t = workloads::makeBenchmarkTrace("SpMV");
    const auto stand = simulateTrace(t, core::presets().get("standard"));
    const auto soft = simulateTrace(t, core::presets().get("soft"));
    EXPECT_LT(soft.amat(), stand.amat() * 0.95);
}

TEST(Integration, BlockingToleratesLargerBlocksWithSoft)
{
    // Figure 11a: software control lets blocked algorithms use larger
    // blocks. Compare AMAT at a large block size.
    const auto big = workloads::makeTaggedTrace(
        workloads::buildBlockedMv(600, 300));
    const auto stand = simulateTrace(big, core::presets().get("standard"));
    const auto soft = simulateTrace(big, core::presets().get("soft"));
    EXPECT_LT(soft.amat(), stand.amat());
}

TEST(Integration, TraceReplayMatchesIncrementalRuns)
{
    // simulateTrace == manual access loop + finish.
    const auto t = workloads::makeBenchmarkTrace("DYF");
    const auto batch = simulateTrace(t, core::presets().get("soft"));
    test::ShadowedCache sim(core::presets().get("soft"));
    for (const auto &r : t)
        sim.access(r);
    sim.finish();
    EXPECT_EQ(batch.totalAccessCycles, sim.stats().totalAccessCycles);
    EXPECT_EQ(batch.misses, sim.stats().misses);
}

} // namespace
