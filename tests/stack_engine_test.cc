/**
 * @file
 * The single-pass stack-distance engine's correctness story, in four
 * layers:
 *
 *  - StackEngine: unit tests of the profiler mechanics on hand-built
 *    traces (conflict thrash, truncated-depth reuse, coverage, line
 *    table growth).
 *  - StackDifferential: the engine against exact core::simulateTrace
 *    replay — bit-identical miss counts across size x assoc lattices
 *    for every standard-family preset, for the full 84-point
 *    three-line-size re-sweep lattice in one engine, and for the
 *    standard-config subset of the 5000-case differential fuzz
 *    corpus.
 *  - StackProperty: Mattson's inclusion property (miss counts
 *    monotone non-increasing in associativity at fixed sets, and in
 *    size at fixed associativity on the paper workloads).
 *  - StackAnalytic: convergence to the closed-form independent-
 *    reference-model miss ratio on long uniform-random traces — an
 *    oracle that shares no code with the simulator or the engine.
 *
 * Plus the harness integration (StackFamily): Runner::run dispatching
 * a standard family to ONE traversal per workload (checked against
 * direct exact replay, and at 1 vs 4 jobs with the passes on the
 * request's pool), the stack.pass.* counters, and
 * the StackRegression guard that configurations differing only in
 * fields the stack pass folds away still occupy distinct cells.
 */

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/trace_source.hh"
#include "src/util/json.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;

const trace::Trace &
mvTrace()
{
    static const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(48));
    return t;
}

harness::Workload
mvWorkload()
{
    return {"MV", [] { return mvTrace(); }, nullptr};
}

/** A standard-family lattice config: @p base rescaled and re-wayed. */
core::Config
latticePoint(core::Config base, std::uint64_t cache_bytes,
             std::uint32_t assoc)
{
    base = core::scaledConfig(std::move(base), cache_bytes,
                              base.lineBytes);
    base.assoc = assoc;
    base.name += " A=" + std::to_string(assoc);
    base.validate();
    return base;
}

/** The 8-cell standard family of the acceptance criterion. */
std::vector<core::Config>
eightCellFamily()
{
    std::vector<core::Config> out;
    for (const std::uint64_t kb : {4, 8, 16, 32}) {
        for (const std::uint32_t ways : {1u, 2u})
            out.push_back(latticePoint(core::presets().get("standard"),
                                       kb * 1024, ways));
    }
    return out;
}

/**
 * The re-sweep lattice: {1..64} KB x {1,2,4,8} ways x {16,32,64}-byte
 * lines of the standard preset, 84 points in three line groups.
 */
std::vector<core::Config>
resweepLattice()
{
    std::vector<core::Config> out;
    for (std::uint64_t kb = 1; kb <= 64; kb *= 2) {
        for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
            for (const std::uint32_t line : {16u, 32u, 64u}) {
                core::Config cfg = core::scaledConfig(
                    core::presets().get("standard"), kb * 1024, line);
                cfg.assoc = ways;
                cfg.name = std::to_string(kb) + "k/" +
                           std::to_string(ways) + "w/" +
                           std::to_string(line) + "B";
                cfg.validate();
                out.push_back(std::move(cfg));
            }
        }
    }
    return out;
}

// --- StackEngine: profiler mechanics --------------------------------

TEST(StackEngine, ConflictThrashMissesDirectMappedHitsTwoWay)
{
    // Two lines exactly one cache image apart alias to the same set:
    // alternating touches thrash a direct-mapped cache but fit in two
    // ways. Both geometries share sets=128, so one profiler answers
    // both.
    const sim::StackPoint one_way{4096, 32, 1};  // 128 sets
    const sim::StackPoint two_way{8192, 32, 2};  // 128 sets
    sim::StackDistanceEngine eng({one_way, two_way});

    trace::Trace t("thrash");
    for (int i = 0; i < 10; ++i) {
        t.push({.addr = 0x0});
        t.push({.addr = 0x1000}); // 4096 = one image apart
    }
    trace::MemoryTraceSource src(t);
    EXPECT_EQ(eng.run(src), 20u);

    EXPECT_EQ(eng.accesses(), 20u);
    EXPECT_EQ(eng.missCount(one_way), 20u); // every touch evicts
    EXPECT_EQ(eng.missCount(two_way), 2u);  // compulsory only
    EXPECT_DOUBLE_EQ(eng.missRatio(two_way), 0.1);
    EXPECT_EQ(eng.touchedLines(32), 2u);
}

TEST(StackEngine, ReuseBeyondTrackedDepthStaysAMiss)
{
    // Three aliasing lines cycled through a lattice tracking at most
    // 2 ways: every reuse has stack distance 3, a miss at both
    // associativities even though the lines were seen before.
    const sim::StackPoint one_way{4096, 32, 1};
    const sim::StackPoint two_way{8192, 32, 2};
    sim::StackDistanceEngine eng({one_way, two_way});

    trace::Trace t("cycle3");
    for (int rep = 0; rep < 4; ++rep) {
        for (Addr a : {Addr{0}, Addr{0x1000}, Addr{0x2000}})
            t.push({.addr = a});
    }
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.missCount(one_way), 12u);
    EXPECT_EQ(eng.missCount(two_way), 12u);
    EXPECT_EQ(eng.touchedLines(32), 3u);
}

TEST(StackEngine, ReadWriteSplitFollowsTheRecords)
{
    sim::StackDistanceEngine eng({{1024, 32, 1}});
    trace::Trace t("rw");
    t.push({.addr = 0, .type = trace::AccessType::Read});
    t.push({.addr = 32, .type = trace::AccessType::Write});
    t.push({.addr = 0, .type = trace::AccessType::Write});
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.reads(), 1u);
    EXPECT_EQ(eng.writes(), 2u);
    EXPECT_EQ(eng.accesses(), 3u);
}

TEST(StackEngine, CoversExactlyTheLatticeGeometries)
{
    sim::StackDistanceEngine eng({{8192, 32, 1}, {8192, 32, 2}});
    EXPECT_TRUE(eng.covers({8192, 32, 1}));
    EXPECT_TRUE(eng.covers({8192, 32, 2}));
    // Same sets (128) as the two-way point at half the size and one
    // way: covered, profilers key on (line, sets) up to max depth.
    EXPECT_TRUE(eng.covers({4096, 32, 1}));
    // Right set count (256), but deeper than the tracked depth there.
    EXPECT_FALSE(eng.covers({16384, 32, 2}));
    EXPECT_FALSE(eng.covers({32768, 32, 4}));
    EXPECT_FALSE(eng.covers({8192, 64, 1})); // other line size
    EXPECT_FALSE(eng.covers({8192, 48, 1})); // non-pow2 line
}

TEST(StackEngine, WellFormedRejectsNonPowerOfTwoGeometry)
{
    EXPECT_TRUE((sim::StackPoint{8192, 32, 1}).wellFormed());
    EXPECT_TRUE((sim::StackPoint{8192, 32, 2}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{8192, 48, 1}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{8192, 32, 0}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{0, 32, 1}).wellFormed());
    // 8192 / (32 * 3) is not integral, let alone a power of two.
    EXPECT_FALSE((sim::StackPoint{8192, 32, 3}).wellFormed());
    // 96 sets: divisible but not a power of two.
    EXPECT_FALSE((sim::StackPoint{96 * 32, 32, 1}).wellFormed());
}

TEST(StackEngine, ResidentAndDeepSplitSurvivesTableGrowth)
{
    // 1000 distinct lines outgrow the line table's first 1024 slots
    // (it doubles past 768), so every later access runs after at
    // least one rehash. A 1024-set direct-mapped point keeps all
    // 1000 lines resident; a 16-set point holds only the latest two
    // lines per set.
    const sim::StackPoint big{1024 * 32, 32, 1};  // 1024 sets
    const sim::StackPoint small1{16 * 32, 32, 1}; // 16 sets, 1 way
    const sim::StackPoint small2{32 * 32, 32, 2}; // 16 sets, 2 ways
    sim::StackDistanceEngine eng({big, small1, small2});

    trace::Trace t("growth");
    for (Addr line = 0; line < 1000; ++line)
        t.push({.addr = line * 32});
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.touchedLines(32), 1000u);
    for (const auto &p : {big, small1, small2})
        EXPECT_EQ(eng.missCount(p), 1000u); // compulsory only

    // The last 32 lines are each their set's two most recent at 16
    // sets, in order, so each re-touch sits at depth 2: a hit at two
    // ways, a miss at one.
    trace::Trace recent("recent");
    for (Addr line = 968; line < 1000; ++line)
        recent.push({.addr = line * 32});
    eng.feed(recent.data(), recent.size());
    EXPECT_EQ(eng.missCount(big), 1000u);
    EXPECT_EQ(eng.missCount(small1), 1032u);
    EXPECT_EQ(eng.missCount(small2), 1000u);

    // The first 100 lines are still resident at 1024 sets, but were
    // pushed past both ways at 16 sets: deep reuses, not first
    // touches, so touchedLines does not move.
    trace::Trace early("early");
    for (Addr line = 0; line < 100; ++line)
        early.push({.addr = line * 32});
    eng.feed(early.data(), early.size());
    EXPECT_EQ(eng.touchedLines(32), 1000u);
    EXPECT_EQ(eng.accesses(), 1132u);
    EXPECT_EQ(eng.missCount(big), 1000u);
    EXPECT_EQ(eng.missCount(small1), 1132u);
    EXPECT_EQ(eng.missCount(small2), 1100u);
}

// --- StackDifferential: against exact replay ------------------------

/** Replay @p cfg exactly and diff every stack-derivable count. */
void
expectStackMatchesReplay(const sim::StackDistanceEngine &eng,
                         const trace::Trace &t,
                         const core::Config &cfg)
{
    const sim::RunStats exact = core::simulateTrace(t, cfg);
    const sim::RunStats stack = harness::stackStatsFor(eng, cfg);
    EXPECT_EQ(stack.misses, exact.misses) << cfg.name;
    EXPECT_EQ(stack.accesses, exact.accesses) << cfg.name;
    EXPECT_EQ(stack.reads, exact.reads) << cfg.name;
    EXPECT_EQ(stack.writes, exact.writes) << cfg.name;
    EXPECT_EQ(stack.mainHits, exact.mainHits) << cfg.name;
    EXPECT_EQ(stack.linesFetched, exact.linesFetched) << cfg.name;
    EXPECT_EQ(stack.bytesFetched, exact.bytesFetched) << cfg.name;
    // The derivable metrics are computed from the same integers, so
    // they match as doubles, bit for bit.
    EXPECT_EQ(stack.missRatio(), exact.missRatio()) << cfg.name;
    EXPECT_EQ(stack.wordsFetchedPerAccess(),
              exact.wordsFetchedPerAccess())
        << cfg.name;
    EXPECT_EQ(stack.mainHitShare(), exact.mainHitShare()) << cfg.name;
    EXPECT_EQ(stack.auxHitShare(), exact.auxHitShare()) << cfg.name;
}

TEST(StackDifferential, StandardFamilyPresetsAcrossTheLattice)
{
    const auto &t = mvTrace();
    // Every preset on the Standard feature path, plus the standard
    // baseline at the other physical line sizes of Fig 8b.
    const std::vector<core::Config> bases = {
        core::presets().get("standard"),
        core::presets().get("2way"),
        core::standardWithLineSize(16),
        core::standardWithLineSize(64),
    };
    for (const auto &base : bases) {
        ASSERT_TRUE(harness::stackFamilyEligible(base)) << base.name;
        std::vector<core::Config> cfgs;
        for (const std::uint64_t kb : {2, 4, 8, 16}) {
            for (const std::uint32_t ways : {1u, 2u, 4u})
                cfgs.push_back(latticePoint(base, kb * 1024, ways));
        }
        std::vector<sim::StackPoint> points;
        for (const auto &cfg : cfgs)
            points.push_back(harness::stackPointOf(cfg));
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        for (const auto &cfg : cfgs)
            expectStackMatchesReplay(eng, t, cfg);
    }
}

TEST(StackDifferential, WarmResweepLatticeAllLineSizes)
{
    // The re-sweep lattice of the repository benchmark in ONE engine:
    // {1..64} KB x {1,2,4,8} ways x {16,32,64}-byte lines, 84 points
    // in three line groups of ten set counts each, against exact
    // replay of the paper MV trace. Its ~125k distinct 16-byte lines
    // grow the line table many times over while every set's recency
    // array is full.
    const trace::Trace t = workloads::makeBenchmarkTrace("MV");
    const std::vector<core::Config> cfgs = resweepLattice();
    ASSERT_EQ(cfgs.size(), 84u);
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : cfgs)
        points.push_back(harness::stackPointOf(cfg));
    sim::StackDistanceEngine eng(points);
    eng.feed(t.data(), t.size());
    EXPECT_GT(eng.touchedLines(16), 100000u);
    for (const auto &cfg : cfgs)
        expectStackMatchesReplay(eng, t, cfg);
}

TEST(StackDifferential, FuzzCorpusStandardSubset)
{
    // The standard-config subset of the fixed-seed 5000-case fuzz
    // corpus (the budget tools/check.sh address replays): for every
    // case whose configuration lands on the Standard feature path,
    // the stack pass must agree with exact replay across a small
    // sets x assoc x line-size lattice around the fuzzed geometry.
    // The fuzzed aux/temporal/write-buffer/classifier knobs vary
    // freely, proving the pass folds exactly the fields that cannot
    // matter.
    const check::TraceFuzzer fuzzer;
    std::size_t eligible = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const check::FuzzCase c = fuzzer.makeCase(i);
        if (!harness::stackFamilyEligible(c.config))
            continue;
        ++eligible;

        // The fuzzed line size and one other share the engine, so
        // two line groups see the same records.
        const std::uint32_t other_line =
            c.config.lineBytes == 64 ? 16 : c.config.lineBytes * 2;
        std::vector<core::Config> cfgs;
        for (const std::uint32_t line : {c.config.lineBytes, other_line}) {
            for (const std::uint64_t size_mult : {1, 4}) {
                for (const std::uint32_t ways : {1u, 2u, 4u}) {
                    core::Config cfg = c.config;
                    // Keep the fuzzed set count (and 4x it) while the
                    // associativity sweeps, so points share set
                    // counts.
                    cfg.lineBytes = line;
                    cfg.cacheSizeBytes = c.config.cacheSizeBytes /
                                         c.config.lineBytes * line *
                                         size_mult * ways;
                    cfg.assoc = ways;
                    cfg.validate();
                    cfgs.push_back(std::move(cfg));
                }
            }
        }
        std::vector<sim::StackPoint> points;
        for (const auto &cfg : cfgs)
            points.push_back(harness::stackPointOf(cfg));
        sim::StackDistanceEngine eng(points);
        eng.feed(c.trace.data(), c.trace.size());
        for (const auto &cfg : cfgs)
            expectStackMatchesReplay(eng, c.trace, cfg);
        if (HasFatalFailure() || HasNonfatalFailure())
            FAIL() << "diverged at fuzz case " << i << " (seed "
                   << c.seed << ")";
    }
    // The subset must be a real corpus, not a vacuous filter.
    EXPECT_GE(eligible, 100u);
}

// --- StackProperty: Mattson inclusion -------------------------------

TEST(StackProperty, MissesMonotoneNonIncreasingInAssocAtFixedSets)
{
    // The inclusion theorem proper: at a fixed set count, the A-way
    // LRU content is a subset of the (A+1)-way content, so misses
    // can only shrink as ways are added.
    const auto &t = mvTrace();
    std::vector<sim::StackPoint> points;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u})
        points.push_back({std::uint64_t{128} * 32 * ways, 32, ways});
    sim::StackDistanceEngine eng(points);
    trace::MemoryTraceSource src(t);
    eng.run(src);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(eng.missCount(points[i]),
                  eng.missCount(points[i - 1]))
            << "assoc " << points[i].assoc;
    }
}

TEST(StackProperty, MissRatioMonotoneNonIncreasingInSizeAtFixedAssoc)
{
    // Mattson inclusion as the figures use it: growing the cache at
    // fixed associativity never hurts on the paper's workloads.
    const auto &t = mvTrace();
    for (const std::uint32_t ways : {1u, 2u}) {
        std::vector<sim::StackPoint> points;
        for (std::uint64_t kb = 1; kb <= 64; kb *= 2)
            points.push_back({kb * 1024, 32, ways});
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_LE(eng.missCount(points[i]),
                      eng.missCount(points[i - 1]))
                << "assoc " << ways << ", size "
                << points[i].cacheSizeBytes;
        }
    }
}

// --- StackAnalytic: closed-form independent-reference oracle --------

/**
 * Steady-state miss ratio of an LRU cache of @p cache_lines lines
 * under the independent reference model with uniform references over
 * @p population_lines distinct lines (cache_lines <= population):
 * by symmetry the cache holds a uniform random subset, so a
 * reference hits with probability C/M and
 *
 *     miss ratio = 1 - C / M.
 *
 * (The set-associative bit-selected case factors: each set sees a
 * uniform stream over M/S lines with A ways, giving 1 - A/(M/S) =
 * 1 - C/M again.) This is the "Analytical Studies of Strategies for
 * Utilization of Cache Memory" closed form, reimplemented here from
 * the formula alone — it exercises no simulator or engine code.
 */
double
irmUniformMissRatio(std::uint64_t cache_lines,
                    std::uint64_t population_lines)
{
    return 1.0 - static_cast<double>(cache_lines) /
                     static_cast<double>(population_lines);
}

TEST(StackAnalytic, ConvergesToIndependentReferenceModel)
{
    constexpr std::uint64_t population = 4096; // distinct lines
    constexpr std::uint32_t line = 32;
    constexpr std::uint64_t records = 400000;

    trace::Trace t("uniform-irm");
    t.reserve(records);
    util::Rng rng(0x57ac4a11u);
    for (std::uint64_t i = 0; i < records; ++i)
        t.push({.addr = rng.nextBelow(population) * line});

    // Lattice spanning C = 256 .. 4096 cached lines, mixed sets and
    // ways. The last point holds the whole population: its steady-
    // state miss ratio is 0, measured misses are compulsory only.
    const std::vector<sim::StackPoint> points = {
        {8 * 1024, line, 1},   // C = 256
        {16 * 1024, line, 2},  // C = 512
        {32 * 1024, line, 1},  // C = 1024
        {64 * 1024, line, 4},  // C = 2048
        {128 * 1024, line, 1}, // C = 4096 = population
    };
    sim::StackDistanceEngine eng(points);
    eng.feed(t.data(), t.size());

    for (const auto &p : points) {
        const std::uint64_t cache_lines =
            p.cacheSizeBytes / p.lineBytes;
        const double expected =
            irmUniformMissRatio(cache_lines, population);
        EXPECT_NEAR(eng.missRatio(p), expected, 0.02)
            << "C = " << cache_lines;
    }
}

// --- StackRegression: cacheKey separates folded fields --------------

TEST(StackRegression, CacheKeySeparatesFieldsTheStackPassFolds)
{
    // A stack pass folds away the write buffer, timing and classifier
    // knobs (they cannot change standard-path miss counts). The
    // result caches and manifests must still keep such configs apart:
    // cacheKey() serializes every simulation-relevant field.
    const core::Config a = core::presets().get("standard");
    core::Config b = a;
    b.writeBufferEntries = 64;
    core::Config c = a;
    c.timing.memoryLatency += 10;
    core::Config d = a;
    d.classifyMisses = !a.classifyMisses;

    EXPECT_NE(a.cacheKey(), b.cacheKey());
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    EXPECT_NE(b.cacheKey(), c.cacheKey());

    // Distinct keys mean distinct manifest cells (the filename hashes
    // the key), even though a stack pass served both from one
    // traversal.
    EXPECT_NE(telemetry::manifestFileName("MV", a.cacheKey()),
              telemetry::manifestFileName("MV", b.cacheKey()));
}

TEST(StackRegression, FoldedConfigsGetDistinctManifestCells)
{
    core::Config a = core::presets().get("standard");
    core::Config b = a;
    b.writeBufferEntries = 64;
    b.name = "Stand. wb=64";

    const std::string dir =
        testing::TempDir() + "sac_stack_manifest_test";
    std::filesystem::remove_all(dir);

    harness::Runner r;
    auto req =
        testref::request({mvWorkload()}, {a, b}, harness::missRatioMetric());
    req.telemetry.manifestDir = dir;
    const auto result = r.run(req);
    // Same geometry: one traversal covers both cells.
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cells"), 2u);
    EXPECT_EQ(r.runsExecuted(), 0u);

    // Each cell carries the stats a direct engine pass implies.
    sim::StackDistanceEngine eng(
        {harness::stackPointOf(a), harness::stackPointOf(b)});
    trace::MemoryTraceSource src(mvTrace());
    eng.run(src);
    EXPECT_TRUE(result.at(0, 0).stats == harness::stackStatsFor(eng, a));
    EXPECT_TRUE(result.at(0, 1).stats == harness::stackStatsFor(eng, b));

    const auto &pa = result.at(0, 0).manifestPath;
    const auto &pb = result.at(0, 1).manifestPath;
    ASSERT_FALSE(pa.empty());
    ASSERT_FALSE(pb.empty());
    EXPECT_NE(pa, pb); // distinct cells, not one overwritten file

    std::ifstream in(pa);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("stack-single-pass"),
              std::string::npos);
    EXPECT_NE(content.str().find("family_size"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// --- StackFamily: harness integration -------------------------------

TEST(StackFamily, EligibilityFollowsTheStandardFeaturePath)
{
    EXPECT_TRUE(
        harness::stackFamilyEligible(core::presets().get("standard")));
    EXPECT_TRUE(
        harness::stackFamilyEligible(core::presets().get("2way")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("victim")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("soft")));
    EXPECT_FALSE(harness::stackFamilyEligible(
        core::presets().get("soft-prefetch")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("bypass")));
    // Standard feature path, but a different replacement policy: the
    // non-temporal preference must disqualify.
    EXPECT_FALSE(harness::stackFamilyEligible(
        core::presets().get("simplified-soft-2way")));
    // Every eligible preset is on the Standard path (sanity sweep).
    for (const auto &p : core::presets().all()) {
        if (harness::stackFamilyEligible(p.config)) {
            EXPECT_EQ(core::featureSetOf(p.config),
                      core::FeatureSet::Standard)
                << p.key;
        }
    }
}

TEST(StackFamily, OnlyCountMetricsAreStackDerivable)
{
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::missRatioMetric()));
    EXPECT_TRUE(harness::stackDerivableMetric(
        harness::wordsPerAccessMetric()));
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::mainHitShareMetric()));
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::auxHitShareMetric()));
    EXPECT_FALSE(harness::stackDerivableMetric(harness::amatMetric()));
}

TEST(StackFamily, EightCellSweepIsExactlyOneTraversal)
{
    // The acceptance criterion: a standard-family 8-cell sweep
    // performs ONE trace traversal, zero exact replays, and renders
    // byte-identically to the per-config replay path.
    const auto configs = eightCellFamily();
    ASSERT_EQ(configs.size(), 8u);

    harness::Runner stacked;
    const auto table =
        stacked
            .run(testref::request({mvWorkload()}, configs,
                                  harness::missRatioMetric(), 4))
            .table;
    EXPECT_EQ(stacked.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(stacked.stackCounter("stack.pass.records"),
              mvTrace().size());
    EXPECT_EQ(stacked.stackCounter("stack.pass.cells"), 8u);
    EXPECT_EQ(stacked.stackCounter("stack.pass.fallback_cells"), 0u);
    EXPECT_EQ(stacked.runsExecuted(), 0u);

    const auto reference = testref::referenceTable(
        {mvWorkload()}, configs, harness::missRatioMetric());
    EXPECT_EQ(harness::toCsv(table), harness::toCsv(reference));
}

TEST(StackFamily, SecondSweepServesFromTheStackStore)
{
    const auto configs = eightCellFamily();
    harness::Runner r;
    r.run(testref::request({mvWorkload()}, configs,
                           harness::missRatioMetric(), 2));
    r.run(testref::request({mvWorkload()}, configs,
                           harness::wordsPerAccessMetric(), 2));
    // Still one traversal: the second sweep (even under a different
    // derivable metric) is served entirely from the stack store.
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cached_cells"), 8u);
    EXPECT_EQ(r.runsExecuted(), 0u);
}

TEST(StackFamily, TimingMetricFallsBackToExactReplay)
{
    const auto configs = eightCellFamily();
    harness::Runner r;
    r.run(testref::request({mvWorkload()}, configs, harness::amatMetric(),
                           2));
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), 8u);
}

TEST(StackFamily, MixedSweepSplitsFamilyFromFallback)
{
    // Four standard cells ride the stack pass; the soft and victim
    // cells fall back to exact replay, and the rendered table is
    // byte-identical to the all-replay reference.
    std::vector<core::Config> configs;
    for (const std::uint64_t kb : {4, 8})
        for (const std::uint32_t ways : {1u, 2u})
            configs.push_back(
                latticePoint(core::presets().get("standard"), kb * 1024, ways));
    configs.push_back(core::presets().get("soft"));
    configs.push_back(core::presets().get("victim"));

    harness::Runner r;
    const auto table =
        r.run(testref::request({mvWorkload()}, configs,
                               harness::missRatioMetric(), 2))
            .table;
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cells"), 4u);
    EXPECT_EQ(r.stackCounter("stack.pass.fallback_cells"), 2u);
    EXPECT_EQ(r.runsExecuted(), 2u);

    EXPECT_EQ(harness::toCsv(table),
              harness::toCsv(testref::referenceTable(
                  {mvWorkload()}, configs,
                  harness::missRatioMetric())));
}

TEST(StackFamily, SingleEligibleConfigIsNotWorthAPass)
{
    // A family of one gains nothing over a replay: no stack dispatch.
    harness::Runner r;
    r.run(testref::request({mvWorkload()},
                           {core::presets().get("standard")},
                           harness::missRatioMetric()));
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), 1u);
}

TEST(StackFamily, StackStatsNeverPoisonTheExactCellCache)
{
    // After a stack-dispatched sweep, an AMAT sweep over the same
    // cells must replay them exactly — the stack store and the exact
    // cell cache are separate by design.
    const auto configs = eightCellFamily();
    harness::Runner r;
    const auto miss_table =
        r.run(testref::request({mvWorkload()}, configs,
                               harness::missRatioMetric(), 2))
            .table;
    EXPECT_EQ(r.runsExecuted(), 0u);
    const auto amat_table =
        r.run(testref::request({mvWorkload()}, configs,
                               harness::amatMetric(), 2))
            .table;
    EXPECT_EQ(r.runsExecuted(), 8u); // exact replays really happened

    EXPECT_EQ(harness::toCsv(amat_table),
              harness::toCsv(testref::referenceTable(
                  {mvWorkload()}, configs, harness::amatMetric())));
    EXPECT_EQ(harness::toCsv(miss_table),
              harness::toCsv(testref::referenceTable(
                  {mvWorkload()}, configs,
                  harness::missRatioMetric())));
}

TEST(StackFamily, PooledFamiliesMatchSerial)
{
    // Each workload's stack pass is a task on the request's pool,
    // next to the exact cells. Four workloads of different lengths
    // over the lattice plus two exact-replayed presets must render
    // the same table and the same manifest bytes at 1 and 4 jobs,
    // with one traversal per workload.
    std::vector<harness::Workload> ws;
    for (const std::int64_t n : {24, 48, 32, 40}) {
        ws.push_back({"MV" + std::to_string(n),
                      [n] {
                          return workloads::makeTaggedTrace(
                              workloads::buildMv(n));
                      },
                      nullptr});
    }
    const std::vector<core::Config> lattice = resweepLattice();
    const std::vector<core::Config> mixed = [&lattice] {
        std::vector<core::Config> out = lattice;
        out.push_back(core::presets().get("soft"));
        out.push_back(core::presets().get("victim"));
        return out;
    }();

    struct Outcome
    {
        std::string csv;
        std::map<std::string, std::string> manifests;
    };
    const auto sweep = [&ws](const std::vector<core::Config> &configs,
                             unsigned jobs, std::size_t replays) {
        harness::Runner r;
        auto req = testref::request(ws, configs,
                                    harness::missRatioMetric(), jobs);
        Outcome o;
        req.telemetry.sink = [&o](const std::string &file,
                                  const std::string &doc) {
            o.manifests[file] = doc;
        };
        o.csv = harness::toCsv(r.run(req).table);
        EXPECT_EQ(r.stackCounter("stack.pass.traversals"), ws.size());
        EXPECT_EQ(r.runsExecuted(), replays);
        EXPECT_EQ(o.manifests.size(), ws.size() * configs.size());
        return o;
    };
    // Stack manifests carry no timing, so they match byte for byte;
    // exact cells record their replay seconds, which must differ.
    const auto untimed = [](std::map<std::string, std::string> docs) {
        for (auto &[file, doc] : docs) {
            auto json = util::Json::parse(doc);
            EXPECT_TRUE(json.has_value()) << file;
            if (!json)
                continue;
            json->set("timing", util::Json::object());
            std::ostringstream os;
            json->write(os);
            doc = os.str();
        }
        return docs;
    };
    const Outcome serial = sweep(lattice, 1, 0);
    const Outcome pooled = sweep(lattice, 4, 0);
    EXPECT_EQ(pooled.csv, serial.csv);
    EXPECT_TRUE(pooled.manifests == serial.manifests);
    const std::size_t replays = 2 * ws.size();
    const Outcome serial_mixed = sweep(mixed, 1, replays);
    const Outcome pooled_mixed = sweep(mixed, 4, replays);
    EXPECT_EQ(pooled_mixed.csv, serial_mixed.csv);
    EXPECT_TRUE(untimed(pooled_mixed.manifests) ==
                untimed(serial_mixed.manifests));

    // A workload whose build() throws fails the request with its
    // exception, never a crash: every task is waited for before it
    // re-raises. A workload without stream is materialized before any
    // task starts, so there the throw leaves run() directly; a
    // workload whose stream throws fails inside its traversal task,
    // so there the throw surfaces from a worker while the other
    // workloads' traversals run. Each request has its own runner, so
    // the broken trace latch is entered once: re-entering a
    // std::call_once whose callable threw hangs under
    // ThreadSanitizer.
    std::vector<harness::Workload> broken = ws;
    broken.insert(broken.begin() + 2,
                  {"broken",
                   []() -> trace::Trace {
                       throw std::runtime_error("no trace");
                   },
                   nullptr});
    {
        harness::Runner r;
        EXPECT_THROW(r.run(testref::request(
                         broken, mixed, harness::missRatioMetric(), 4)),
                     std::runtime_error);
        // The runner stays usable for the workloads that do build.
        const auto after = r.run(testref::request(
            ws, lattice, harness::missRatioMetric(), 4));
        EXPECT_EQ(harness::toCsv(after.table), serial.csv);
    }
    {
        broken[2].stream = [](const trace::RecordSink &) {
            throw std::runtime_error("no stream");
        };
        harness::Runner r;
        EXPECT_THROW(r.run(testref::request(
                         broken, {core::presets().get("soft")},
                         harness::amatMetric(), 4)),
                     std::runtime_error);
    }
}

} // namespace
