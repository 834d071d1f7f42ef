/**
 * @file
 * Unit tests for src/sim: timing parameters, the write buffer, the
 * three-C miss classifier and the run statistics (including the
 * merge algebra suite totals rely on).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/check/trace_fuzzer.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/run_stats.hh"
#include "src/sim/timing.hh"
#include "src/sim/write_buffer.hh"
#include "tests/shadowed_sim.hh"

namespace {

using sac::sim::MissClass;
using sac::sim::MissClassifier;
using sac::sim::RunStats;
using sac::sim::ShadowOutcome;
using sac::sim::TimingParams;
using sac::sim::WriteBuffer;

TEST(TimingParams, PaperDefaults)
{
    const TimingParams t;
    EXPECT_EQ(t.memoryLatency, 20u);
    EXPECT_EQ(t.busBytesPerCycle, 16u);
    EXPECT_EQ(t.mainHitTime, 1u);
    EXPECT_EQ(t.auxHitTime, 3u);
}

TEST(TimingParams, TransferCyclesRoundUp)
{
    const TimingParams t;
    EXPECT_EQ(t.transferCycles(32), 2u);
    EXPECT_EQ(t.transferCycles(8), 1u);
    EXPECT_EQ(t.transferCycles(17), 2u);
    EXPECT_EQ(t.transferCycles(0), 0u);
}

TEST(TimingParams, MissPenaltyFormula)
{
    // Paper Section 2.1: tlat + n*LS/wb. Loading a 256-byte virtual
    // line takes 14 more cycles than a 32-byte physical line.
    const TimingParams t;
    EXPECT_EQ(t.missPenalty(1, 32), 22u);
    EXPECT_EQ(t.missPenalty(8, 32), 36u);
    EXPECT_EQ(t.missPenalty(8, 32) - t.missPenalty(1, 32), 14u);
}

TEST(WriteBufferTest, PushPopFifo)
{
    WriteBuffer wb(4);
    EXPECT_TRUE(wb.empty());
    wb.push(32);
    wb.push(8);
    EXPECT_EQ(wb.occupancy(), 2u);
    EXPECT_EQ(wb.pop(), 32u);
    EXPECT_EQ(wb.pop(), 8u);
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBufferTest, FullDetection)
{
    WriteBuffer wb(2);
    wb.push(32);
    wb.push(32);
    EXPECT_TRUE(wb.full());
    wb.pop();
    EXPECT_FALSE(wb.full());
}

TEST(WriteBufferTest, DrainAllReturnsTotalBytes)
{
    WriteBuffer wb(8);
    wb.push(32);
    wb.push(32);
    wb.push(8);
    EXPECT_EQ(wb.drainAll(), 72u);
    EXPECT_TRUE(wb.empty());
    EXPECT_EQ(wb.totalBytesPushed(), 72u);
}

TEST(WriteBufferTest, WrapAround)
{
    WriteBuffer wb(3);
    for (int round = 0; round < 5; ++round) {
        wb.push(static_cast<std::uint32_t>(round + 1));
        EXPECT_EQ(wb.pop(), static_cast<std::uint32_t>(round + 1));
    }
}

TEST(WriteBufferTest, PushWhenFullPanics)
{
    WriteBuffer wb(1);
    wb.push(32);
    EXPECT_DEATH(wb.push(32), "full write buffer");
}

TEST(WriteBufferTest, PopWhenEmptyPanics)
{
    WriteBuffer wb(1);
    EXPECT_DEATH(wb.pop(), "empty write buffer");
}

TEST(WriteBufferTest, WrapAroundAtFullOccupancy)
{
    // Advance head_ to the last slot, then fill the whole ring so the
    // occupied region wraps past the end of the backing array.
    WriteBuffer wb(64);
    for (int i = 0; i < 63; ++i) {
        wb.push(1);
        wb.pop();
    }
    for (std::uint32_t i = 0; i < 64; ++i)
        wb.push(i + 1);
    EXPECT_TRUE(wb.full());
    EXPECT_EQ(wb.occupancy(), 64u);
    // FIFO order must survive the wraparound.
    for (std::uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(wb.pop(), i + 1);
    EXPECT_TRUE(wb.empty());
}

/** Shadow outcome of one access to @p addr. */
ShadowOutcome
touch(MissClassifier &mc, sac::Addr addr)
{
    sac::trace::Record r;
    r.addr = addr;
    ShadowOutcome out;
    mc.classify(&r, 1, &out);
    return out;
}

TEST(MissClassifierTest, FirstTouchIsCompulsory)
{
    MissClassifier mc(4, 32);
    EXPECT_EQ(touch(mc, 0), ShadowOutcome::FirstTouch);
    EXPECT_EQ(touch(mc, 32), ShadowOutcome::FirstTouch);
    EXPECT_EQ(sac::sim::missClassOf(ShadowOutcome::FirstTouch),
              MissClass::Compulsory);
    EXPECT_EQ(mc.touchedLines(), 2u);
}

TEST(MissClassifierTest, SameLineNotCompulsoryTwice)
{
    MissClassifier mc(4, 32);
    touch(mc, 0);
    EXPECT_NE(touch(mc, 0), ShadowOutcome::FirstTouch);
    // Two addresses in the same line count as one touched line.
    touch(mc, 40);
    touch(mc, 63);
    EXPECT_EQ(mc.touchedLines(), 2u);
}

TEST(MissClassifierTest, CapacityWhenShadowLruMisses)
{
    MissClassifier mc(2, 32); // 2-line fully-associative shadow
    touch(mc, 0);
    touch(mc, 32);
    touch(mc, 64); // shadow now {64, 32}; 0 evicted
    EXPECT_EQ(touch(mc, 0), ShadowOutcome::ShadowMiss);
    EXPECT_EQ(sac::sim::missClassOf(ShadowOutcome::ShadowMiss),
              MissClass::Capacity);
}

TEST(MissClassifierTest, ConflictWhenShadowLruHits)
{
    MissClassifier mc(4, 32);
    touch(mc, 0);
    touch(mc, 32);
    // Line 0 is still in the 4-line shadow: a real-cache miss on it
    // must be a mapping conflict.
    EXPECT_EQ(touch(mc, 0), ShadowOutcome::ShadowHit);
    EXPECT_EQ(sac::sim::missClassOf(ShadowOutcome::ShadowHit),
              MissClass::Conflict);
}

TEST(MissClassifierTest, HitsUpdateShadowRecency)
{
    MissClassifier mc(2, 32);
    touch(mc, 0);
    touch(mc, 32);
    touch(mc, 0);  // refreshes line 0; 32 is now LRU
    touch(mc, 64); // evicts 32 from the shadow
    EXPECT_EQ(touch(mc, 0), ShadowOutcome::ShadowHit);
    EXPECT_EQ(touch(mc, 32), ShadowOutcome::ShadowMiss);
}

TEST(MissClassifierTest, HitsAreNeverClassified)
{
    // Every access has a shadow outcome, but only the simulator's
    // misses are counted in a class: repeated hits on one line must
    // not inflate the conflict bucket.
    const auto cfg = sac::core::presets().get("standard");
    sac::test::ShadowedCache sim(cfg);
    sac::trace::Record r;
    r.addr = 0x1000;
    for (int i = 0; i < 5; ++i)
        sim.access(r);
    EXPECT_EQ(sim.stats().misses, 1u);
    EXPECT_EQ(sim.stats().compulsoryMisses, 1u);
    EXPECT_EQ(sim.stats().capacityMisses + sim.stats().conflictMisses,
              0u);
}

TEST(MissClassifierTest, BatchesContinueOneStream)
{
    // Outcomes do not depend on how the stream is cut into batches,
    // and they survive packing at any record offset.
    const auto c = sac::check::TraceFuzzer().makeCase(7);
    const auto &t = c.trace;
    MissClassifier whole(64, 32), split(64, 32);
    std::vector<ShadowOutcome> a(t.size()), b(t.size());
    whole.classify(t.data(), t.size(), a.data());
    for (std::size_t i = 0; i < t.size(); i += 5)
        split.classify(t.data() + i, std::min<std::size_t>(5, t.size() - i),
                       b.data() + i);
    EXPECT_EQ(a, b);

    sac::sim::PackedOutcomes packed;
    packed.append(a.data(), 3);
    packed.append(a.data() + 3, a.size() - 3);
    ASSERT_EQ(packed.size(), a.size());
    EXPECT_EQ(packed.bytes(), (a.size() + 3) / 4);
    std::vector<ShadowOutcome> back(a.size());
    packed.unpack(0, 8, back.data());
    packed.unpack(8, a.size() - 8, back.data() + 8);
    EXPECT_EQ(back, a);
}

TEST(RunStatsTest, DerivedMetrics)
{
    RunStats s;
    s.accesses = 100;
    s.mainHits = 80;
    s.auxHits = 10;
    s.misses = 10;
    s.bytesFetched = 320; // 80 words
    s.totalAccessCycles = 250.0;
    EXPECT_DOUBLE_EQ(s.amat(), 2.5);
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.1);
    EXPECT_DOUBLE_EQ(s.hitRatio(), 0.9);
    EXPECT_DOUBLE_EQ(s.mainHitShare(), 80.0 / 90.0);
    EXPECT_DOUBLE_EQ(s.auxHitShare(), 10.0 / 90.0);
    EXPECT_DOUBLE_EQ(s.wordsFetchedPerAccess(), 0.8);
}

TEST(RunStatsTest, EmptyStatsAreZero)
{
    const RunStats s;
    EXPECT_DOUBLE_EQ(s.amat(), 0.0);
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.0);
    EXPECT_DOUBLE_EQ(s.wordsFetchedPerAccess(), 0.0);
}

TEST(RunStatsTest, BypassesCountTowardMissRatio)
{
    RunStats s;
    s.accesses = 10;
    s.misses = 1;
    s.bypasses = 2;
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.3);
}

TEST(RunStatsTest, PrintMentionsKeyCounters)
{
    RunStats s;
    s.accesses = 42;
    s.mainHits = 40;
    s.misses = 2;
    std::ostringstream os;
    s.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("AMAT"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("bounce-backs"), std::string::npos);
}

// ---------------------------------------------------------------------
// RunStats merge algebra: what suite-total summation relies on.

std::vector<RunStats>
fuzzRunStats(std::size_t n)
{
    const sac::check::TraceFuzzer fuzzer;
    std::vector<RunStats> out;
    for (std::uint64_t i = 0; out.size() < n; ++i) {
        const auto c = fuzzer.makeCase(i);
        if (c.trace.empty())
            continue;
        out.push_back(sac::core::simulateTrace(c.trace, c.config));
    }
    return out;
}

TEST(RunStatsMergeAlgebra, AssociativeWithIdentity)
{
    const auto runs = fuzzRunStats(3);
    const RunStats &a = runs[0];
    const RunStats &b = runs[1];
    const RunStats &c = runs[2];

    EXPECT_TRUE((a + b) + c == a + (b + c));
    const RunStats zero;
    EXPECT_TRUE(zero + a == a);
    EXPECT_TRUE(a + zero == a);
}

TEST(RunStatsMergeAlgebra, PermutationInvariantTotals)
{
    // Suite totals sum per-cell stats; any partition of the same runs
    // must therefore give the same total no matter how the pieces
    // are grouped or ordered. Every counter is an exact integer
    // (totalAccessCycles sums integral latencies well below 2^53), so
    // reordering is lossless.
    auto runs = fuzzRunStats(6);
    RunStats forward;
    for (const auto &r : runs)
        forward += r;

    std::reverse(runs.begin(), runs.end());
    RunStats backward;
    for (const auto &r : runs)
        backward += r;
    EXPECT_TRUE(forward == backward);

    // Grouped two ways: ((0+1)+(2+3))+(4+5) vs. linear.
    RunStats grouped =
        ((runs[0] + runs[1]) + (runs[2] + runs[3])) +
        (runs[4] + runs[5]);
    EXPECT_TRUE(grouped == backward);
}

TEST(RunStatsMergeAlgebra, CompletionCycleMergesByMax)
{
    RunStats early;
    early.accesses = 10;
    early.completionCycle = 100;
    RunStats late;
    late.accesses = 5;
    late.completionCycle = 900;

    RunStats merged = early;
    merged += late;
    EXPECT_EQ(merged.completionCycle, 900u);
    EXPECT_EQ(merged.accesses, 15u);

    // Independent runs: merging in the other order agrees.
    RunStats swapped = late;
    swapped += early;
    EXPECT_TRUE(merged == swapped);
}

} // namespace
