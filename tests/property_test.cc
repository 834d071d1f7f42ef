/**
 * @file
 * Property-based tests: structural invariants of the simulator that
 * must hold for every configuration on randomized traces, checked
 * with parameterized sweeps (gtest TEST_P).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;
using core::Config;
using core::simulateTrace;

/** A randomized mixture of streams, hot sets and scattered accesses. */
trace::Trace
randomTrace(std::uint64_t seed, std::size_t n = 20000)
{
    util::Rng rng(seed);
    trace::Trace t("random");
    Addr stream = 0x100000;
    for (std::size_t i = 0; i < n; ++i) {
        trace::Record r;
        const auto kind = rng.nextBelow(10);
        if (kind < 4) {
            // Stride-one stream.
            stream += 8;
            r.addr = stream;
            r.spatial = true;
        } else if (kind < 7) {
            // Hot working set with temporal tags.
            r.addr = 0x200000 + rng.nextBelow(512) * 8;
            r.temporal = true;
        } else {
            // Scattered, untagged.
            r.addr = 0x300000 + rng.nextBelow(1 << 16) * 8;
        }
        r.ref = static_cast<RefId>(kind);
        r.delta = static_cast<std::uint16_t>(1 + rng.nextBelow(6));
        r.type = rng.nextBool(0.3) ? trace::AccessType::Write
                                   : trace::AccessType::Read;
        t.push(r);
    }
    return t;
}

std::vector<Config>
allConfigs()
{
    return {
        core::presets().get("standard"),
        core::presets().get("victim"),
        core::presets().get("soft"),
        core::presets().get("soft-temporal"),
        core::presets().get("soft-spatial"),
        core::presets().get("soft-prefetch"),
        core::presets().get("standard-prefetch"),
        core::presets().get("bypass"),
        core::presets().get("bypass-buffer"),
        core::presets().get("2way"),
        core::presets().get("2way-victim"),
        core::presets().get("soft-2way"),
        core::presets().get("simplified-soft-2way"),
        core::presets().get("variable"),
        [] {
            auto c = core::presets().get("soft");
            c.auxAssoc = 4;
            c.name = "Soft. 4-way BB";
            return c;
        }(),
        [] {
            auto c = core::presets().get("soft-prefetch");
            c.prefetchDegree = 2;
            c.name = "Soft.+PF d2";
            return c;
        }(),
    };
}

class SimInvariants
    : public testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(SimInvariants, HoldOnRandomTraces)
{
    const auto [seed, cfg_index] = GetParam();
    const Config cfg = allConfigs()[static_cast<std::size_t>(cfg_index)];
    const auto t = randomTrace(seed);
    const auto s = simulateTrace(t, cfg);

    // Accounting closure.
    EXPECT_EQ(s.accesses, t.size());
    EXPECT_EQ(s.reads + s.writes, s.accesses);
    EXPECT_EQ(s.mainHits + s.auxHits + s.misses + s.bypasses +
                  s.bypassBufferHits,
              s.accesses);

    // Ratios are well-formed.
    EXPECT_GE(s.missRatio(), 0.0);
    EXPECT_LE(s.missRatio(), 1.0);
    EXPECT_GE(s.hitRatio(), 0.0);
    EXPECT_LE(s.hitRatio() + s.missRatio(), 1.000001);

    // Every access costs at least the hit time; none can cost more
    // than a worst-case stall.
    EXPECT_GE(s.amat(), static_cast<double>(cfg.timing.mainHitTime));
    EXPECT_LT(s.amat(), 200.0);

    // The three-C classes partition the classified fetches.
    EXPECT_EQ(s.compulsoryMisses + s.capacityMisses + s.conflictMisses,
              s.misses + s.bypasses);

    // Traffic is consistent with fetch counts.
    EXPECT_GE(s.bytesFetched,
              s.linesFetched * static_cast<std::uint64_t>(
                                   cfg.bypass != core::BypassMode::None
                                       ? 0
                                       : cfg.lineBytes));
    EXPECT_GE(s.misses + s.bypasses + s.prefetchesIssued,
              s.linesFetched > 0 ? 1u : 0u);

    // Aux events require an aux cache.
    if (cfg.auxLines == 0) {
        EXPECT_EQ(s.auxHits, 0u);
        EXPECT_EQ(s.bounces, 0u);
        EXPECT_EQ(s.swaps, 0u);
    }
    if (!cfg.bounceBack) {
        EXPECT_EQ(s.bounces, 0u);
        EXPECT_EQ(s.bouncesCancelled, 0u);
        EXPECT_EQ(s.bouncesAborted, 0u);
    }
    if (!cfg.prefetch) {
        EXPECT_EQ(s.prefetchesIssued, 0u);
    }
    if (cfg.bypass == core::BypassMode::None) {
        EXPECT_EQ(s.bypasses, 0u);
        EXPECT_EQ(s.bypassBufferHits, 0u);
    }

    // Time moves forward.
    EXPECT_GE(s.completionCycle, t.totalIssueCycles());
    EXPECT_GT(s.totalAccessCycles, 0.0);

    // Determinism.
    const auto again = simulateTrace(t, cfg);
    EXPECT_EQ(again.totalAccessCycles, s.totalAccessCycles);
    EXPECT_EQ(again.misses, s.misses);
    EXPECT_EQ(again.bytesFetched, s.bytesFetched);
    EXPECT_EQ(again.bounces, s.bounces);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesConfigs, SimInvariants,
    testing::Combine(testing::Values(1ull, 2ull, 3ull, 4ull),
                     testing::Range(0, 16)),
    [](const testing::TestParamInfo<std::tuple<std::uint64_t, int>>
           &info) {
        return "seed" +
               std::to_string(std::get<0>(info.param)) + "_cfg" +
               std::to_string(std::get<1>(info.param));
    });

/** Virtual-line size sweep: structural invariants per size. */
class VlSweep : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(VlSweep, FetchAccountingConsistent)
{
    const std::uint32_t vl = GetParam();
    const auto t = randomTrace(99, 30000);
    const auto cfg = core::softWithVirtualLineSize(vl);
    const auto s = simulateTrace(t, cfg);

    EXPECT_EQ(s.bytesFetched,
              s.linesFetched * static_cast<std::uint64_t>(32));
    if (vl <= 32) {
        EXPECT_EQ(s.extraLinesFetched, 0u);
        EXPECT_EQ(s.virtualLineFills, 0u);
    } else {
        // Never more extra lines than (block size - 1) per fill.
        EXPECT_LE(s.extraLinesFetched,
                  s.virtualLineFills * (vl / 32 - 1));
        EXPECT_GT(s.virtualLineFills, 0u);
    }
    EXPECT_EQ(s.linesFetched, s.misses + s.extraLinesFetched);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VlSweep,
                         testing::Values(32u, 64u, 128u, 256u));

/** Memory-latency sweep: AMAT grows monotonically with latency. */
class LatencySweep : public testing::TestWithParam<int>
{
};

TEST_P(LatencySweep, AmatIncreasesWithLatency)
{
    const auto t = randomTrace(7, 15000);
    Config cfg = core::presets().get("soft");
    cfg.timing.memoryLatency = static_cast<Cycle>(GetParam());
    const auto s = simulateTrace(t, cfg);

    Config faster = cfg;
    faster.timing.memoryLatency = cfg.timing.memoryLatency / 2;
    const auto f = simulateTrace(t, faster);
    EXPECT_GE(s.amat(), f.amat());
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencySweep,
                         testing::Values(10, 20, 30, 40));

/** Aux size sweep: invariants hold from 1 to 64 lines. */
class AuxSweep : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(AuxSweep, BounceBackScalesWithAuxSize)
{
    Config cfg = core::presets().get("soft");
    cfg.auxLines = GetParam();
    const auto t = randomTrace(11, 15000);
    const auto s = simulateTrace(t, cfg);
    EXPECT_EQ(s.mainHits + s.auxHits + s.misses, s.accesses);
    EXPECT_LE(s.auxHits, s.accesses);
}

INSTANTIATE_TEST_SUITE_P(AuxSizes, AuxSweep,
                         testing::Values(1u, 2u, 4u, 8u, 16u, 64u));

/** Write-ratio sweep: writebacks only occur when something is dirty. */
class WriteRatioSweep : public testing::TestWithParam<int>
{
};

TEST_P(WriteRatioSweep, WritebackOnlyWithWrites)
{
    const int pct = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(pct) + 5);
    trace::Trace t("w");
    for (int i = 0; i < 20000; ++i) {
        trace::Record r;
        r.addr = 0x100000 + rng.nextBelow(4096) * 8;
        r.type = rng.nextBool(pct / 100.0) ? trace::AccessType::Write
                                           : trace::AccessType::Read;
        r.delta = 1;
        t.push(r);
    }
    const auto s = simulateTrace(t, core::presets().get("soft"));
    if (pct == 0)
        EXPECT_EQ(s.bytesWrittenBack, 0u);
    else
        EXPECT_GT(s.bytesWrittenBack, 0u);
    EXPECT_EQ(s.writes, static_cast<std::uint64_t>(t.writeCount()));
}

INSTANTIATE_TEST_SUITE_P(WriteRatios, WriteRatioSweep,
                         testing::Values(0, 10, 50, 100));

/** The paper-config sweep the figure benches run. */
std::vector<Config>
paperSweepConfigs()
{
    return {core::presets().get("standard"), core::presets().get("soft-temporal"),
            core::presets().get("soft-spatial"), core::presets().get("soft")};
}

/**
 * Parallel-vs-reference equivalence on the full paperWorkloads() x
 * paper-config sweep: Runner::run at 4 jobs must render the table of
 * a direct serial replay byte for byte (compared as CSV), simulating
 * every cell and generating every trace exactly once.
 */
TEST(ParallelSweep, MatrixAndRunMatrixAreByteIdentical)
{
    const auto workloads = harness::paperWorkloads();
    const auto configs = paperSweepConfigs();
    const auto metric = harness::amatMetric();
    const auto reference =
        harness::toCsv(testref::referenceTable(workloads, configs, metric));

    harness::Runner parallel;
    const auto req = testref::request(workloads, configs, metric, 4);
    EXPECT_EQ(harness::toCsv(parallel.run(req).table), reference);
    EXPECT_EQ(parallel.runsExecuted(),
              workloads.size() * configs.size());
    EXPECT_EQ(parallel.tracesGenerated(), workloads.size());

    // A second parallel sweep over the same cells is fully cached.
    EXPECT_EQ(harness::toCsv(parallel.run(req).table), reference);
    EXPECT_EQ(parallel.runsExecuted(),
              workloads.size() * configs.size());
}

/** jobs=1 takes the serial path and still renders the same bytes. */
TEST(ParallelSweep, SingleJobDegeneratesToSerial)
{
    const auto workloads = harness::paperWorkloads();
    const std::vector<Config> configs{core::presets().get("standard"),
                                      core::presets().get("soft")};
    const auto metric = harness::missRatioMetric();

    harness::Runner one_job;
    EXPECT_EQ(harness::toCsv(
                  testref::referenceTable(workloads, configs, metric)),
              harness::toCsv(
                  one_job.run(testref::request(workloads, configs, metric))
                      .table));
}

/**
 * Thread-count independence: every jobs value renders the same bytes
 * on randomized synthetic workloads, including more jobs than cells.
 */
TEST(ParallelSweep, JobCountDoesNotChangeBytes)
{
    std::vector<harness::Workload> ws;
    for (int i = 0; i < 3; ++i) {
        ws.push_back({"rng" + std::to_string(i), [i] {
                          auto t = randomTrace(
                              static_cast<std::uint64_t>(i) + 100,
                              4000);
                          t.setName("rng" + std::to_string(i));
                          return t;
                      },
                      nullptr});
    }
    const std::vector<Config> configs{
        core::presets().get("standard"), core::presets().get("victim"),
        core::presets().get("soft"), core::presets().get("variable")};
    const auto metric = harness::wordsPerAccessMetric();

    const auto expected =
        harness::toCsv(testref::referenceTable(ws, configs, metric));
    for (const unsigned jobs : {1u, 2u, 3u, 8u, 32u}) {
        harness::Runner r;
        EXPECT_EQ(harness::toCsv(
                      r.run(testref::request(ws, configs, metric, jobs))
                          .table),
                  expected)
            << "jobs=" << jobs;
        EXPECT_EQ(r.runsExecuted(), ws.size() * configs.size());
        EXPECT_EQ(r.tracesGenerated(), ws.size());
    }
}

} // namespace
