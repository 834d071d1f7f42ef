/**
 * @file
 * Tests of the time-resolved telemetry layer: IntervalRecorder
 * snapshot mechanics and JSONL export, the SetProfiler heat counters,
 * and the differential guarantees that per-interval deltas sum
 * bit-for-bit to the final RunStats,
 * that attaching the instrumentation never perturbs the simulation,
 * and that an instrumented exact-cell manifest (writeCellManifest with
 * ManifestCell::intervals/profile) carries the profile block plus the
 * sibling interval series.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/sim/run_stats.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using telemetry::IntervalRecorder;
using telemetry::SetProfiler;

std::vector<std::uint64_t>
counterValuesOf(const sim::RunStats &s)
{
    std::vector<std::uint64_t> out;
    s.forEachCounter([&](const char *, const char *,
                         std::uint64_t value) { out.push_back(value); });
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    return content.str();
}

TEST(IntervalRecorder, SnapshotsEveryNAndFlushesThePartialTail)
{
    sim::RunStats s;
    IntervalRecorder rec(2);
    EXPECT_EQ(rec.intervalRecords(), 2u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        ++s.accesses;
        ++s.reads;
        s.misses += i % 2;
        s.totalAccessCycles += 2.0;
        rec.afterAccess(s, i);
    }
    // Five accesses at period two: boundaries after #2 and #4.
    ASSERT_EQ(rec.snapshots().size(), 2u);
    const auto &first = rec.snapshots()[0];
    EXPECT_EQ(first.index, 0u);
    EXPECT_EQ(first.startRecord, 0u);
    EXPECT_EQ(first.endRecord, 2u);
    EXPECT_FALSE(first.closing);
    EXPECT_EQ(first.writeBufferOccupancy, 1u);
    const std::size_t ai = IntervalRecorder::counterIndex("access.total");
    ASSERT_LT(ai, first.deltas.size());
    EXPECT_EQ(first.deltas[ai], 2u);
    EXPECT_DOUBLE_EQ(first.deltaAccessCycles, 4.0);
    EXPECT_EQ(rec.snapshots()[1].startRecord, 2u);
    EXPECT_EQ(rec.snapshots()[1].endRecord, 4u);

    // finish() flushes the one trailing access as a closing interval
    // and is idempotent.
    rec.finish(s, 7);
    rec.finish(s, 7);
    ASSERT_EQ(rec.snapshots().size(), 3u);
    const auto &tail = rec.snapshots().back();
    EXPECT_TRUE(tail.closing);
    EXPECT_EQ(tail.startRecord, 4u);
    EXPECT_EQ(tail.endRecord, 5u);
    EXPECT_EQ(tail.deltas[ai], 1u);
    EXPECT_EQ(tail.writeBufferOccupancy, 7u);

    // The telescoping property on the synthetic run.
    const auto totals = rec.deltaTotals();
    EXPECT_EQ(totals, counterValuesOf(s));
    EXPECT_DOUBLE_EQ(rec.deltaAccessCyclesTotal(), 10.0);
}

TEST(IntervalRecorder, FinishOnAnExactBoundaryAddsNothing)
{
    sim::RunStats s;
    IntervalRecorder rec(2);
    for (int i = 0; i < 4; ++i) {
        ++s.accesses;
        rec.afterAccess(s, 0);
    }
    ASSERT_EQ(rec.snapshots().size(), 2u);
    rec.finish(s, 0);
    EXPECT_EQ(rec.snapshots().size(), 2u);
    EXPECT_FALSE(rec.snapshots().back().closing);
}

TEST(IntervalRecorder, ZeroPeriodClampsToOne)
{
    EXPECT_EQ(IntervalRecorder(0).intervalRecords(), 1u);
}

TEST(IntervalRecorder, CounterNamesMatchTheRunStatsEnumeration)
{
    std::vector<std::string> expect;
    sim::RunStats{}.forEachCounter(
        [&](const char *name, const char *, std::uint64_t) {
            expect.emplace_back(name);
        });
    const auto &names = IntervalRecorder::counterNames();
    ASSERT_EQ(names.size(), expect.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(names[i], expect[i]) << "index " << i;
    EXPECT_EQ(IntervalRecorder::counterIndex(names.front()), 0u);
    EXPECT_EQ(IntervalRecorder::counterIndex("no.such.counter"),
              names.size());
}

TEST(IntervalRecorder, JsonlExportHasHeaderAndOneLinePerSnapshot)
{
    sim::RunStats s;
    IntervalRecorder rec(2);
    for (int i = 0; i < 5; ++i) {
        ++s.accesses;
        ++s.misses;
        rec.afterAccess(s, 0);
    }
    rec.finish(s, 0);
    ASSERT_EQ(rec.snapshots().size(), 3u);

    const std::string path =
        testing::TempDir() + "sac_interval_test.intervals.jsonl";
    ASSERT_TRUE(rec.writeJsonl(path, "MV", "Soft", "cachekey"));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u); // header + 3 snapshots
    EXPECT_NE(lines[0].find(telemetry::intervalSchema),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"workload\":\"MV\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"interval_records\":2"),
              std::string::npos);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_NE(lines[i].find("\"delta\""), std::string::npos);
        EXPECT_NE(lines[i].find("\"cum\""), std::string::npos);
    }
    // Only the flushed tail carries the closing marker.
    EXPECT_EQ(lines[1].find("\"closing\""), std::string::npos);
    EXPECT_NE(lines[3].find("\"closing\":true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SetProfiler, CountsPerSetAndFindsTheHottest)
{
    SetProfiler p(4);
    EXPECT_EQ(p.numSets(), 4u);
    p.onAccess(0);
    p.onAccess(1);
    p.onAccess(1);
    p.onMiss(1);
    p.onMiss(3);
    p.onMiss(3);
    p.onEviction(3);
    p.onConflict(1);
    EXPECT_EQ(p.totalAccesses(), 3u);
    EXPECT_EQ(p.totalMisses(), 3u);
    EXPECT_EQ(p.totalEvictions(), 1u);
    EXPECT_EQ(p.totalConflicts(), 1u);
    EXPECT_EQ(p.hottestSet(), 3u);

    const auto doc = p.toJson().dump(0);
    EXPECT_NE(doc.find(telemetry::setProfileSchema),
              std::string::npos);
    EXPECT_NE(doc.find("\"sets\":4"), std::string::npos);
    EXPECT_NE(doc.find("\"hottest_set\":3"), std::string::npos);

    // Ties resolve to the lowest index; an empty profiler is set 0.
    EXPECT_EQ(SetProfiler(2).hottestSet(), 0u);
    EXPECT_EQ(SetProfiler(0).numSets(), 1u);
}

/**
 * Write the exact-cell manifest of (t, cfg, stats) with the observers
 * of one replay of @p t: an interval recorder when
 * @p interval_records > 0, a heat profiler when @p heatmap.
 */
std::string
writeInstrumented(const std::string &dir, const core::Config &cfg,
                  const trace::Trace &t, const sim::RunStats &stats,
                  std::uint64_t interval_records, bool heatmap,
                  double sim_seconds = 0.0)
{
    core::SoftwareAssistedCache sim(cfg);
    std::optional<IntervalRecorder> rec;
    std::optional<SetProfiler> prof;
    if (interval_records > 0)
        sim.attachIntervalRecorder(&rec.emplace(interval_records));
    if (heatmap)
        sim.attachSetProfiler(&prof.emplace(sim.mainArray().numSets()));
    sim.run(t);
    EXPECT_EQ(sim.stats(), stats);

    harness::ManifestCell cell;
    cell.workload = "MV";
    cell.config = &cfg;
    cell.stats = &stats;
    cell.intervals = rec ? &*rec : nullptr;
    cell.profile = prof ? &*prof : nullptr;
    cell.simSeconds = sim_seconds;
    return harness::writeCellManifest(dir, cell,
                                      harness::EngineTag::ExactReplay);
}

TEST(IntervalDifferential, DeltasSumExactlyToTheFinalRunStats)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(48));
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    IntervalRecorder rec(500);
    SetProfiler prof(sim.mainArray().numSets());
    sim.attachIntervalRecorder(&rec);
    sim.attachSetProfiler(&prof);
    sim.run(t);

    const sim::RunStats &s = sim.stats();
    ASSERT_GT(rec.snapshots().size(), 1u);

    // Every uint64 counter telescopes exactly.
    EXPECT_EQ(rec.deltaTotals(), counterValuesOf(s));
    // The latency sum is float arithmetic; allow rounding slack.
    EXPECT_NEAR(rec.deltaAccessCyclesTotal(), s.totalAccessCycles,
                1e-9 * s.totalAccessCycles + 1e-9);
    // The last snapshot's cumulative state is the final state.
    EXPECT_EQ(rec.snapshots().back().cumulative, s);
    // Record ranges tile the run without gaps.
    std::uint64_t expect_start = 0;
    for (const auto &snap : rec.snapshots()) {
        EXPECT_EQ(snap.startRecord, expect_start);
        expect_start = snap.endRecord;
    }
    EXPECT_EQ(expect_start, s.accesses);
}

TEST(IntervalDifferential, AttachingInstrumentationDoesNotPerturb)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(40));
    const auto cfg = core::presets().get("soft");
    const sim::RunStats plain = core::simulateTrace(t, cfg);

    core::SoftwareAssistedCache sim(cfg);
    IntervalRecorder rec(123);
    SetProfiler prof(sim.mainArray().numSets());
    sim.attachIntervalRecorder(&rec);
    sim.attachSetProfiler(&prof);
    sim.run(t);
    EXPECT_EQ(sim.stats(), plain);
}

TEST(IntervalDifferential, WarmingModeRecordsNothing)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(32));
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    IntervalRecorder rec(10);
    SetProfiler prof(sim.mainArray().numSets());
    sim.attachIntervalRecorder(&rec);
    sim.attachSetProfiler(&prof);
    sim.runWarming(t.data(), t.size());
    sim.finish();
    EXPECT_TRUE(rec.snapshots().empty());
    EXPECT_EQ(prof.totalAccesses(), 0u);
    EXPECT_EQ(prof.totalMisses(), 0u);
}

TEST(SetProfilerDifferential, TotalsMatchTheRunStatsCounters)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(48));
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    SetProfiler prof(sim.mainArray().numSets());
    sim.attachSetProfiler(&prof);
    sim.run(t);

    const sim::RunStats &s = sim.stats();
    EXPECT_EQ(prof.totalAccesses(), s.accesses);
    EXPECT_EQ(prof.totalMisses(), s.misses);
    EXPECT_EQ(prof.totalConflicts(), s.conflictMisses);
    EXPECT_GT(prof.totalAccesses(), 0u);
    EXPECT_LT(prof.hottestSet(), prof.numSets());
}

TEST(InstrumentedManifest, WritesProfileBlockAndIntervalSeries)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(40));
    const auto cfg = core::presets().get("soft");
    const auto stats = core::simulateTrace(t, cfg);
    const std::string dir =
        testing::TempDir() + "sac_instrumented_manifest_test";

    const auto path = writeInstrumented(dir, cfg, t, stats, 400, true, 0.5);
    ASSERT_FALSE(path.empty());

    const auto doc = slurp(path);
    EXPECT_NE(doc.find("\"profile\""), std::string::npos);
    EXPECT_NE(doc.find(telemetry::setProfileSchema),
              std::string::npos);
    EXPECT_NE(doc.find("\"hottest_set\""), std::string::npos);
    // The counters are the recorded run's, bit-for-bit.
    EXPECT_NE(doc.find("\"total\": " + std::to_string(stats.accesses)),
              std::string::npos);

    std::string jsonl = path;
    jsonl.replace(jsonl.rfind(".json"), 5, ".intervals.jsonl");
    const auto series = slurp(jsonl);
    ASSERT_FALSE(series.empty());
    EXPECT_NE(series.find(telemetry::intervalSchema),
              std::string::npos);
    EXPECT_NE(series.find(cfg.name), std::string::npos);

    std::remove(path.c_str());
    std::remove(jsonl.c_str());
}

TEST(InstrumentedManifest, NoInstrumentationRequestedWritesPlain)
{
    const auto t =
        workloads::makeTaggedTrace(workloads::buildMv(32));
    const auto cfg = core::presets().get("soft");
    const auto stats = core::simulateTrace(t, cfg);
    const std::string dir =
        testing::TempDir() + "sac_plain_manifest_test";

    const auto path = writeInstrumented(dir, cfg, t, stats, 0, false);
    ASSERT_FALSE(path.empty());
    const auto doc = slurp(path);
    EXPECT_EQ(doc.find("\"profile\""), std::string::npos);
    std::string jsonl = path;
    jsonl.replace(jsonl.rfind(".json"), 5, ".intervals.jsonl");
    EXPECT_FALSE(std::ifstream(jsonl).good());
    std::remove(path.c_str());
}

} // namespace
