/**
 * @file
 * Tests of the column-associative baseline (Agarwal & Pudar 1993,
 * paper Section 5 related work).
 */

#include <gtest/gtest.h>

#include "src/core/column_assoc.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/workloads/workloads.hh"
#include "tests/shadowed_sim.hh"

namespace {

using namespace sac;
using test::ShadowedColumnAssoc;
using core::ColumnAssocConfig;
using trace::AccessType;
using trace::Record;

constexpr Addr
lineAddr(Addr n)
{
    return n * 32;
}

Record
rec(Addr addr, std::uint16_t delta = 1, bool write = false)
{
    Record r;
    r.addr = addr;
    r.delta = delta;
    r.type = write ? AccessType::Write : AccessType::Read;
    return r;
}

/** A small 8-set column-associative cache for hand-built scenarios. */
ColumnAssocConfig
smallCfg()
{
    ColumnAssocConfig cfg;
    cfg.cacheSizeBytes = 256; // 8 sets
    return cfg;
}

TEST(ColumnAssoc, ConflictingLinesCoexist)
{
    // Lines 2 and 10 share primary set 2; the alternate set (2 ^ 4
    // = 6) holds the demoted one.
    ShadowedColumnAssoc sim(smallCfg());
    sim.access(rec(lineAddr(2)));
    sim.access(rec(lineAddr(10)));
    sim.finish();
    EXPECT_TRUE(sim.contains(lineAddr(2)));
    EXPECT_TRUE(sim.contains(lineAddr(10)));
    EXPECT_TRUE(sim.inPrimarySet(lineAddr(10)));
    EXPECT_FALSE(sim.inPrimarySet(lineAddr(2)));
}

TEST(ColumnAssoc, RehashHitSwapsToPrimary)
{
    ShadowedColumnAssoc sim(smallCfg());
    sim.access(rec(lineAddr(2)));
    sim.access(rec(lineAddr(10)));
    sim.access(rec(lineAddr(2))); // alternate-set hit, swap
    sim.finish();
    EXPECT_EQ(sim.stats().auxHits, 1u);
    EXPECT_EQ(sim.stats().misses, 2u);
    EXPECT_TRUE(sim.inPrimarySet(lineAddr(2)));
    EXPECT_FALSE(sim.inPrimarySet(lineAddr(10)));
}

TEST(ColumnAssoc, RehashHitCostsOneExtraCycle)
{
    ShadowedColumnAssoc sim(smallCfg());
    sim.access(rec(lineAddr(2)));
    sim.access(rec(lineAddr(10)));
    sim.access(rec(lineAddr(2)));
    sim.finish();
    // Every miss pays the second probe before its request goes out
    // (1 + 1 + 20 + 2 = 24 cycles), then a 2-cycle rehash hit.
    EXPECT_DOUBLE_EQ(sim.stats().totalAccessCycles, 24 + 24 + 2.0);
}

TEST(ColumnAssoc, PingPongConvergesViaSwap)
{
    ShadowedColumnAssoc sim(smallCfg());
    sim.access(rec(lineAddr(2)));
    sim.access(rec(lineAddr(10)));
    // Alternate the two conflicting lines: after the fills, every
    // access is a hit (primary or rehash), never a miss.
    for (int i = 0; i < 10; ++i) {
        sim.access(rec(lineAddr(2), 10));
        sim.access(rec(lineAddr(10), 10));
    }
    sim.finish();
    EXPECT_EQ(sim.stats().misses, 2u);
    EXPECT_EQ(sim.stats().mainHits + sim.stats().auxHits, 20u);
}

TEST(ColumnAssoc, ThreeWayConflictStillMisses)
{
    // Three lines on one primary set exceed the two columns.
    ShadowedColumnAssoc sim(smallCfg());
    for (int round = 0; round < 3; ++round) {
        sim.access(rec(lineAddr(2), 10));
        sim.access(rec(lineAddr(10), 10));
        sim.access(rec(lineAddr(18), 10));
    }
    sim.finish();
    EXPECT_GT(sim.stats().misses, 3u);
}

TEST(ColumnAssoc, DirtyDemotedLinesWriteBackWhenClobbered)
{
    ShadowedColumnAssoc sim(smallCfg());
    sim.access(rec(lineAddr(2), 1, true)); // dirty in primary 2
    sim.access(rec(lineAddr(10)));         // demotes dirty 2 to set 6
    sim.access(rec(lineAddr(6)));          // primary set 6: demote 10?
    // Line 6's primary set is 6, which holds demoted line 2: line 2
    // is clobbered out of the cache (written back), 6 fills primary.
    sim.access(rec(lineAddr(14), 60));
    sim.finish();
    EXPECT_GT(sim.stats().bytesWrittenBack, 0u);
}

TEST(ColumnAssoc, RemovesConflictMissesOnMv)
{
    const auto t = workloads::makeBenchmarkTrace("MV");
    const auto dm = core::simulateTrace(t, core::presets().get("standard"));
    core::ColumnAssocConfig cfg;
    const auto ca = core::simulateColumnAssoc(t, cfg);
    // "Most conflict misses are eliminated" (paper Section 5).
    EXPECT_LT(ca.conflictMisses, dm.conflictMisses / 2);
    EXPECT_LT(ca.amat(), dm.amat());
}

TEST(ColumnAssoc, DoesNotDealWithPollution)
{
    // The paper: column associativity does not address pollution, so
    // the software-assisted design stays ahead on MV.
    const auto t = workloads::makeBenchmarkTrace("MV");
    const auto ca =
        core::simulateColumnAssoc(t, core::ColumnAssocConfig{});
    const auto soft = core::simulateTrace(t, core::presets().get("soft"));
    EXPECT_LT(soft.amat(), ca.amat());
}

TEST(ColumnAssoc, AccountingCloses)
{
    const auto t = workloads::makeBenchmarkTrace("DYF");
    const auto s =
        core::simulateColumnAssoc(t, core::ColumnAssocConfig{});
    EXPECT_EQ(s.mainHits + s.auxHits + s.misses, s.accesses);
    EXPECT_EQ(s.compulsoryMisses + s.capacityMisses +
                  s.conflictMisses,
              s.misses);
}

} // namespace
