/**
 * @file
 * Tests of the experiment harness: metric extraction, trace/result
 * caching, table rendering and CSV export.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <fstream>

#include "src/harness/experiment.hh"
#include "src/sim/checkpoint.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;
using harness::Runner;
using harness::Workload;

Workload
tinyWorkload(const std::string &name = "tiny")
{
    return {name,
            [] {
                return workloads::makeTaggedTrace(
                    workloads::buildMv(32));
            },
            nullptr};
}

TEST(HarnessMetrics, NamesAndExtraction)
{
    sim::RunStats s;
    s.accesses = 10;
    s.misses = 2;
    s.mainHits = 6;
    s.auxHits = 2;
    s.totalAccessCycles = 30;
    s.bytesFetched = 80;
    EXPECT_EQ(harness::amatMetric().name, "AMAT");
    EXPECT_DOUBLE_EQ(harness::amatMetric().extract(s), 3.0);
    EXPECT_DOUBLE_EQ(harness::missRatioMetric().extract(s), 0.2);
    EXPECT_DOUBLE_EQ(harness::wordsPerAccessMetric().extract(s), 2.0);
    EXPECT_DOUBLE_EQ(harness::mainHitShareMetric().extract(s), 0.75);
    EXPECT_DOUBLE_EQ(harness::auxHitShareMetric().extract(s), 0.25);
}

TEST(HarnessRunner, TracesAreGeneratedOnce)
{
    Runner r;
    const auto w = tinyWorkload();
    const auto &a = r.traceOf(w);
    const auto &b = r.traceOf(w);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(r.tracesGenerated(), 1u);
}

TEST(ParallelWarmup, BuildsEachTraceOnceAndMatchesSerial)
{
    // Six workloads of different sizes, each listed twice so two
    // pool tasks race for the same slot; every build is counted.
    constexpr std::size_t n = 6;
    std::array<std::atomic<int>, n> builds{};
    std::vector<Workload> ws;
    for (std::size_t i = 0; i < n; ++i) {
        ws.push_back({"mv" + std::to_string(i),
                      [&builds, i] {
                          builds[i].fetch_add(1);
                          return workloads::makeTaggedTrace(
                              workloads::buildMv(16 + 8 * i));
                      },
                      nullptr});
    }
    std::vector<Workload> twice = ws;
    twice.insert(twice.end(), ws.begin(), ws.end());

    Runner parallel;
    parallel.warmup(twice, 4);
    EXPECT_EQ(parallel.tracesGenerated(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(builds[i].load(), 1) << ws[i].name;
    parallel.warmup(twice, 4); // all resident: builds nothing
    EXPECT_EQ(parallel.tracesGenerated(), n);

    Runner serial;
    serial.warmup(ws);
    for (const auto &w : ws)
        EXPECT_EQ(sim::hashTrace(parallel.traceOf(w)),
                  sim::hashTrace(serial.traceOf(w)))
            << w.name;
}

TEST(HarnessRunner, ResultsAreCachedPerConfig)
{
    Runner r;
    const auto w = tinyWorkload();
    const auto standard = testref::request(
        {w}, {core::presets().get("standard")}, harness::amatMetric());
    r.run(standard);
    r.run(standard);
    r.run(testref::request({w}, {core::presets().get("soft")},
                           harness::amatMetric()));
    EXPECT_EQ(r.runsExecuted(), 2u);
}

TEST(HarnessRunner, SameLabelDifferentConfigDoesNotAlias)
{
    // Results are keyed on the canonical serialized config, so two
    // configurations sharing a display name get separate cells.
    Runner r;
    const auto w = tinyWorkload();
    auto small = core::presets().get("standard");
    auto large = core::presets().get("standard");
    large.cacheSizeBytes = 64 * 1024;
    ASSERT_EQ(small.name, large.name);
    ASSERT_NE(small.cacheKey(), large.cacheKey());
    const auto result = r.run(testref::request(
        {w}, {small, large}, harness::missRatioMetric(), 1,
        harness::EngineSelect::Exact));
    EXPECT_EQ(r.runsExecuted(), 2u);
    EXPECT_GT(result.at(0, 0).stats.misses, result.at(0, 1).stats.misses);
}

TEST(ConfigCacheKey, IgnoresNameAndCoversEveryKnob)
{
    auto a = core::presets().get("soft");
    auto b = core::presets().get("soft");
    b.name = "renamed";
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    // Any simulation-relevant field must change the key.
    auto c = a;
    c.virtualLineBytes = 128;
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    auto d = a;
    d.timing.memoryLatency = 35;
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    auto e = a;
    e.resetTemporalBitOnBounce = false;
    EXPECT_NE(a.cacheKey(), e.cacheKey());
    auto f = a;
    f.writeBufferEntries = 4;
    EXPECT_NE(a.cacheKey(), f.cacheKey());
}

TEST(HarnessRunner, MatrixShapeAndContents)
{
    Runner r;
    const std::vector<Workload> ws{tinyWorkload("a"),
                                   tinyWorkload("b")};
    const std::vector<core::Config> cfgs{core::presets().get("standard"),
                                         core::presets().get("soft")};
    const auto table =
        r.run(testref::request(ws, cfgs, harness::amatMetric())).table;
    EXPECT_EQ(table.toString(),
              testref::referenceTable(ws, cfgs, harness::amatMetric())
                  .toString());
    EXPECT_EQ(table.rows(), 2u);
    EXPECT_EQ(table.cols(), 3u);
    EXPECT_EQ(table.cell(0, 0), "a");
    EXPECT_EQ(table.header(1), "Stand.");
    EXPECT_GT(std::stod(table.cell(0, 1)), 1.0);
    EXPECT_EQ(r.runsExecuted(), 4u);
}

TEST(HarnessRunner, PaperWorkloadsMatchRegistry)
{
    const auto ws = harness::paperWorkloads();
    ASSERT_EQ(ws.size(), 9u);
    EXPECT_EQ(ws.front().name, "MDG");
    EXPECT_EQ(ws.back().name, "SpMV");
}

TEST(HarnessCsv, PlainTable)
{
    util::Table t({"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({"3", "4"});
    EXPECT_EQ(harness::toCsv(t), "a,b\n1,2\n3,4\n");
}

TEST(HarnessCsv, QuotesSpecialCharacters)
{
    util::Table t({"name", "value"});
    t.addRow({"has,comma", "has\"quote"});
    EXPECT_EQ(harness::toCsv(t),
              "name,value\n\"has,comma\",\"has\"\"quote\"\n");
}

TEST(HarnessCsv, FileRoundTrip)
{
    util::Table t({"x"});
    t.addRow({"42"});
    const std::string path = "/tmp/sac_harness_csv_test.csv";
    ASSERT_TRUE(harness::writeCsvFile(t, path));
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    EXPECT_EQ(line, "x");
    std::getline(is, line);
    EXPECT_EQ(line, "42");
}

TEST(HarnessCsv, UnwritablePathFails)
{
    util::Table t({"x"});
    EXPECT_FALSE(
        harness::writeCsvFile(t, "/nonexistent_dir/file.csv"));
}

} // namespace
