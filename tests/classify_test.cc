/**
 * @file
 * Shadow outcomes shared across a traversal: harness::Runner
 * classifies each (trace, line size, capacity) once and every exact
 * cell of that geometry replays on the supplied outcomes. Those cells
 * must equal core::simulateTrace (which classifies chunk by chunk
 * beside its simulator) bit for bit, resident and streamed, at any
 * job count; one resident trace is classified once per geometry
 * across requests and threads (so a warm session over the nine paper
 * traces runs nine passes); and a counting replay of a classifying
 * config that is given no outcomes panics, in either simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/core/column_assoc.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;
using core::Config;

/** The tagged MV trace of order @p n as a workload that streams. */
harness::Workload
mvWorkload(std::int64_t n)
{
    return {"MV" + std::to_string(n),
            [n] {
                return workloads::makeTaggedTrace(workloads::buildMv(n));
            },
            [n](const trace::RecordSink &sink) {
                workloads::streamTaggedTrace(workloads::buildMv(n), sink);
            }};
}

/** Every preset (one shared geometry: 8 KB of 32-byte lines). */
std::vector<Config>
presetConfigs()
{
    std::vector<Config> out;
    for (const auto &name : core::presets().names())
        out.push_back(core::presets().get(name));
    return out;
}

/**
 * The presets plus four more geometries (16 and 64 B lines, 4 and
 * 16 KB) and an unclassified config, so one traversal holds several
 * shadows and a cell that supplies none.
 */
std::vector<Config>
geometryConfigs()
{
    std::vector<Config> out = presetConfigs();
    const Config standard = core::presets().get("standard");
    for (const std::uint32_t line : {16u, 64u}) {
        Config c = standard;
        c.lineBytes = line;
        c.name = "standard " + std::to_string(line) + "B";
        out.push_back(c);
    }
    for (const std::uint64_t kb : {4u, 16u}) {
        Config c = core::presets().get("soft");
        c.cacheSizeBytes = kb * 1024;
        c.name = "soft " + std::to_string(kb) + "KB";
        out.push_back(c);
    }
    Config unclassified = core::presets().get("soft");
    unclassified.classifyMisses = false;
    unclassified.name = "soft unclassified";
    out.push_back(unclassified);
    return out;
}

/** Distinct shadow geometries of the classifying configs. */
std::size_t
geometries(const std::vector<Config> &configs)
{
    std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
    for (const Config &c : configs) {
        const std::pair<std::uint32_t, std::uint64_t> g{
            c.lineBytes, c.cacheSizeBytes / c.lineBytes};
        if (c.classifyMisses &&
            std::find(seen.begin(), seen.end(), g) == seen.end())
            seen.push_back(g);
    }
    return seen.size();
}

TEST(Classify, RunnerCellsMatchSimulateTrace)
{
    // MV 60 is 7320 records: one full chunk and a partial one.
    const harness::Workload w = mvWorkload(60);
    const trace::Trace t = w.build();
    ASSERT_GT(t.size(), trace::TraceSource::defaultChunkRecords);
    const auto configs = geometryConfigs();
    ASSERT_EQ(geometries(configs), 5u);
    std::vector<sim::RunStats> direct;
    for (const Config &c : configs)
        direct.push_back(core::simulateTrace(t, c));

    for (const bool resident : {true, false}) {
        for (const unsigned jobs : {1u, 4u}) {
            harness::Runner runner;
            if (resident)
                runner.warmup({w});
            const auto result = runner.run(testref::request(
                {w}, configs, harness::amatMetric(), jobs,
                harness::EngineSelect::Exact));
            for (std::size_t ci = 0; ci < configs.size(); ++ci)
                EXPECT_TRUE(result.at(0, ci).stats == direct[ci])
                    << configs[ci].name << " resident=" << resident
                    << " jobs=" << jobs;
            // A resident trace is classified once per geometry; a
            // streamed one once per geometry of each traversal (and
            // jobs 4 splits its cells over four traversals).
            const std::uint64_t passes =
                runner.classifyCounter("classify.passes");
            if (resident || jobs == 1)
                EXPECT_EQ(passes, geometries(configs));
            else
                EXPECT_GE(passes, geometries(configs));
            EXPECT_EQ(runner.classifyCounter("classify.records"),
                      passes * t.size());
            EXPECT_EQ(runner.classifyCounter("classify.bytes"),
                      resident ? passes * ((t.size() + 3) / 4) : 0u);
            EXPECT_GT(runner.phases().seconds("classify"), 0.0);
        }
    }
}

TEST(Classify, OnePassPerTraceAndGeometryAcrossRequests)
{
    const harness::Workload w = mvWorkload(40);
    harness::Runner runner;
    runner.warmup({w});
    const std::size_t records = runner.traceOf(w).size();

    runner.run(testref::request({w}, presetConfigs(),
                                harness::amatMetric(), 4));
    EXPECT_EQ(runner.classifyCounter("classify.passes"), 1u);
    EXPECT_EQ(runner.classifyCounter("classify.records"), records);
    EXPECT_EQ(runner.classifyCounter("classify.bytes"),
              (records + 3) / 4);

    // A second request reuses the latched geometry and classifies
    // only the four new ones.
    runner.run(testref::request({w}, geometryConfigs(),
                                harness::amatMetric(), 2));
    EXPECT_EQ(runner.classifyCounter("classify.passes"), 5u);
    EXPECT_EQ(runner.classifyCounter("classify.records"), 5 * records);
}

TEST(Classify, WarmSessionClassifiesEachPaperTraceOnce)
{
    // A session shaped like a warm sacd's: resident paper traces, a
    // figure-shaped AMAT suite, then point requests on other presets
    // of the same traces. Every preset shares one shadow geometry, so
    // each paper trace is classified exactly once.
    const auto paper = harness::paperWorkloads();
    harness::Runner runner;
    runner.warmup(paper);
    std::vector<Config> suite;
    for (const char *name : {"standard", "victim", "soft", "soft-prefetch"})
        suite.push_back(core::presets().get(name));
    runner.run(testref::request(paper, suite, harness::amatMetric(), 4));
    runner.run(testref::request(
        {paper[0], paper[1]},
        {core::presets().get("soft-temporal"), core::presets().get("2way")},
        harness::amatMetric()));
    EXPECT_EQ(runner.classifyCounter("classify.passes"), paper.size());
    EXPECT_EQ(paper.size(), 9u);
}

TEST(Classify, ConcurrentRequestsShareOnePass)
{
    // Four threads ask for the same fourteen cells of one resident
    // trace: the trace is classified once, each cell runs once, and
    // every request sees the direct replay's stats.
    const harness::Workload w = mvWorkload(40);
    const trace::Trace t = w.build();
    const auto configs = presetConfigs();
    std::vector<sim::RunStats> direct;
    for (const Config &c : configs)
        direct.push_back(core::simulateTrace(t, c));

    for (int round = 0; round < 4; ++round) {
        harness::Runner runner;
        runner.warmup({w});
        std::vector<harness::SweepResult> results(4);
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < results.size(); ++k)
            threads.emplace_back([&, k] {
                results[k] = runner.run(testref::request(
                    {w}, configs, harness::amatMetric(), 2));
            });
        for (auto &th : threads)
            th.join();
        EXPECT_EQ(runner.classifyCounter("classify.passes"), 1u)
            << "round " << round;
        EXPECT_EQ(runner.runsExecuted(), configs.size())
            << "round " << round;
        for (const auto &r : results)
            for (std::size_t ci = 0; ci < configs.size(); ++ci)
                EXPECT_TRUE(r.at(0, ci).stats == direct[ci])
                    << configs[ci].name << " round " << round;
    }
}

TEST(ClassifyDeathTest, CountingReplayWithoutOutcomesPanics)
{
    const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(10));
    const Config cfg = core::presets().get("soft");
    EXPECT_DEATH(
        {
            core::SoftwareAssistedCache sim(cfg);
            sim.replay(t.data(), t.size(), nullptr);
        },
        "classifying config needs shadow outcomes");
    EXPECT_DEATH(
        {
            core::SoftwareAssistedCache sim(cfg);
            sim.runDetailed(t.data(), t.size(), nullptr);
        },
        "classifying config needs shadow outcomes");
    EXPECT_DEATH(
        {
            core::ColumnAssocCache sim{core::ColumnAssocConfig{}};
            sim.replay(t.data(), t.size(), nullptr);
        },
        "classifying config needs shadow outcomes");

    // Warming counts nothing, so it needs no outcomes.
    core::SoftwareAssistedCache warmed(cfg);
    warmed.runWarming(t.data(), t.size());

    // Without classification a counting replay needs none either, and
    // no miss lands in a class.
    Config unclassified = cfg;
    unclassified.classifyMisses = false;
    core::SoftwareAssistedCache sim(unclassified);
    sim.replay(t.data(), t.size(), nullptr);
    sim.finish();
    EXPECT_GT(sim.stats().misses, 0u);
    EXPECT_EQ(sim.stats().compulsoryMisses, 0u);
    EXPECT_EQ(sim.stats().capacityMisses, 0u);
    EXPECT_EQ(sim.stats().conflictMisses, 0u);
}

} // namespace
