/**
 * @file
 * Tests of the statistical sampling engine (src/sim/sampling.hh):
 * confidence-interval math against analytic Bernoulli moments and an
 * aggregate interval-coverage sweep, SamplingOptions/BenchOptions
 * validation (including the parse() death path), the windowed
 * engine's record accounting, exact fallback and adaptive stopping,
 * skip() across all trace sources, the warming-vs-detailed
 * bit-for-bit state differential (presets and fuzz corpus), and the
 * SampledDifferential dual-replay suite: sampled estimates against
 * full-detail runs on the paper workloads and the fuzz corpus.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/check/auditor.hh"
#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/bench_options.hh"
#include "src/sim/sampling.hh"
#include "src/trace/trace_io.hh"
#include "src/trace/trace_source.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;

// ---------------------------------------------------------------------
// Confidence-interval math.

TEST(SampleStatsTest, NormalQuantilesMatchTables)
{
    EXPECT_NEAR(sim::confidenceZ(0.95), 1.9600, 1e-3);
    EXPECT_NEAR(sim::confidenceZ(0.99), 2.5758, 1e-3);
    EXPECT_NEAR(sim::confidenceZ(0.90), 1.6449, 1e-3);
    EXPECT_NEAR(sim::confidenceZ(0.6827), 1.0, 2e-3);
}

TEST(SampleStatsTest, MatchesAnalyticBernoulliMoments)
{
    // Fixed-seed Bernoulli(p) stream: the sample mean and unbiased
    // variance must land on the analytic p and p(1-p), and the
    // half-width must equal the CLT formula exactly.
    const double p = 0.3;
    const std::uint64_t n = 100000;
    util::Rng rng(0xbe52u);
    sim::SampleStats s;
    for (std::uint64_t i = 0; i < n; ++i)
        s.add(rng.nextBool(p) ? 1.0 : 0.0);

    ASSERT_EQ(s.count(), n);
    EXPECT_NEAR(s.mean(), p, 0.01);
    EXPECT_NEAR(s.variance(), p * (1.0 - p), 0.01);
    EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(s.variance()));
    const double z = sim::confidenceZ(0.95);
    EXPECT_DOUBLE_EQ(s.halfWidth(0.95),
                     z * std::sqrt(s.variance() / double(n)));
    EXPECT_DOUBLE_EQ(s.relativeError(0.95),
                     s.halfWidth(0.95) / s.mean());
    // 99% intervals are strictly wider than 95% ones.
    EXPECT_GT(s.halfWidth(0.99), s.halfWidth(0.95));
}

TEST(SampleStatsTest, EdgeCases)
{
    sim::SampleStats empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.variance(), 0.0);
    EXPECT_TRUE(std::isinf(empty.halfWidth(0.95)));

    sim::SampleStats one;
    one.add(0.5);
    EXPECT_TRUE(std::isinf(one.halfWidth(0.95)))
        << "one window says nothing about its own error";
    EXPECT_TRUE(std::isinf(one.relativeError(0.95)));

    sim::SampleStats constant;
    for (int i = 0; i < 10; ++i)
        constant.add(0.25);
    EXPECT_EQ(constant.variance(), 0.0);
    EXPECT_EQ(constant.halfWidth(0.95), 0.0);
    EXPECT_EQ(constant.relativeError(0.95), 0.0);

    sim::SampleStats zero_mean;
    zero_mean.add(1.0);
    zero_mean.add(-1.0);
    EXPECT_EQ(zero_mean.mean(), 0.0);
    EXPECT_TRUE(std::isinf(zero_mean.relativeError(0.95)));
}

TEST(SampleStatsTest, IntervalCoverageOverManySeeds)
{
    // The statistical guarantee itself: a 95% interval built from 400
    // Bernoulli(0.2) samples must contain the true mean in ~95% of
    // independent repetitions. Any single repetition may legitimately
    // miss, so the assertion is on aggregate coverage (fixed seeds:
    // deterministic, not flaky).
    const double p = 0.2;
    const int trials = 300;
    const int samples = 400;
    int covered = 0;
    for (int t = 0; t < trials; ++t) {
        util::Rng rng(0xc0ffee00u + t);
        sim::SampleStats s;
        for (int i = 0; i < samples; ++i)
            s.add(rng.nextBool(p) ? 1.0 : 0.0);
        if (std::fabs(s.mean() - p) <= s.halfWidth(0.95))
            ++covered;
    }
    EXPECT_GE(covered, int(trials * 0.88))
        << "95% intervals covered only " << covered << "/" << trials;
    EXPECT_LE(covered, trials);
}

TEST(SampleStatsTest, FormatWithCi)
{
    EXPECT_EQ(sim::formatWithCi(1.5, 0.25, 2), "1.50 ±0.25");
    EXPECT_EQ(sim::formatWithCi(0.1234, 0.0, 3), "0.123 ±0.000");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(sim::formatWithCi(2.0, inf, 2), "2.00 ±inf");
}

// ---------------------------------------------------------------------
// Options validation.

TEST(SamplingOptionsTest, ValidationErrors)
{
    sim::SamplingOptions opt;
    EXPECT_FALSE(opt.validationError().has_value());

    opt.window = 0;
    ASSERT_TRUE(opt.validationError().has_value());
    EXPECT_NE(opt.validationError()->find("window"), std::string::npos);

    opt = {};
    opt.window = 512;
    opt.stride = 100;
    ASSERT_TRUE(opt.validationError().has_value());
    EXPECT_NE(opt.validationError()->find("stride 100 < window 512"),
              std::string::npos);

    opt = {};
    opt.confidence = 1.0;
    EXPECT_TRUE(opt.validationError().has_value());
    opt.confidence = 0.0;
    EXPECT_TRUE(opt.validationError().has_value());

    opt = {};
    opt.targetRelativeError = -0.1;
    EXPECT_TRUE(opt.validationError().has_value());

    opt = {};
    opt.targetRelativeError = 0.05;
    opt.minWindows = 1;
    EXPECT_TRUE(opt.validationError().has_value());

    opt = {};
    opt.targetRelativeError = 0.05;
    opt.minWindows = 8;
    opt.maxWindows = 4;
    EXPECT_TRUE(opt.validationError().has_value());
}

TEST(SamplingOptionsDeathTest, ValidateIsFatalOnBadGeometry)
{
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 100;
    EXPECT_EXIT(opt.validate(), testing::ExitedWithCode(1), "stride");
}

TEST(BenchOptionsSampleTest, ParseAcceptsSampleFlags)
{
    const char *argv[] = {"prog",           "--sample",
                          "--sample-window", "64",
                          "--sample-stride", "1024",
                          "--sample-warmup", "128",
                          "--sample-ci",     "99",
                          "--sample-error",  "0.05"};
    const auto opts = harness::BenchOptions::parse(12, argv);
    EXPECT_TRUE(opts.sample);
    EXPECT_EQ(opts.sampling.window, 64u);
    EXPECT_EQ(opts.sampling.stride, 1024u);
    EXPECT_EQ(opts.sampling.warmup, 128u);
    // "--sample-ci 99" reads as a percentage.
    EXPECT_NEAR(opts.sampling.confidence, 0.99, 1e-12);
    EXPECT_NEAR(opts.sampling.targetRelativeError, 0.05, 1e-12);
    EXPECT_FALSE(opts.validationError().has_value());
}

TEST(BenchOptionsSampleTest, ValidationErrorOnContradictoryFlags)
{
    harness::BenchOptions opts;
    EXPECT_FALSE(opts.validationError().has_value());

    // Tuning flags without --sample.
    opts.sampleTuningGiven = true;
    ASSERT_TRUE(opts.validationError().has_value());
    EXPECT_NE(opts.validationError()->find("require --sample"),
              std::string::npos);

    // --sample with a stride below the window.
    opts = {};
    opts.sample = true;
    opts.sampling.window = 512;
    opts.sampling.stride = 100;
    ASSERT_TRUE(opts.validationError().has_value());
    EXPECT_NE(opts.validationError()->find("--sample: "),
              std::string::npos);
    EXPECT_NE(opts.validationError()->find("stride"),
              std::string::npos);

    // Instrumentation against a restored checkpoint: the re-replay
    // the instrumentation would observe never happens.
    opts = {};
    opts.sample = true;
    opts.emitJsonDir = "out";
    opts.checkpointDir = "ckpt";
    opts.heatmap = true;
    ASSERT_TRUE(opts.validationError().has_value());
    EXPECT_NE(opts.validationError()->find("--checkpoint-dir"),
              std::string::npos);

    opts.heatmap = false;
    opts.interval = 1000;
    ASSERT_TRUE(opts.validationError().has_value());
    EXPECT_NE(opts.validationError()->find("--checkpoint-dir"),
              std::string::npos);
}

TEST(BenchOptionsSampleDeathTest, ParseRejectsContradictoryFlags)
{
    const char *stride_lt_window[] = {"prog", "--sample",
                                      "--sample-window=512",
                                      "--sample-stride=100"};
    EXPECT_EXIT(harness::BenchOptions::parse(4, stride_lt_window),
                testing::ExitedWithCode(2), "stride");

    const char *tuning_without_sample[] = {"prog",
                                           "--sample-window=512"};
    EXPECT_EXIT(harness::BenchOptions::parse(2, tuning_without_sample),
                testing::ExitedWithCode(2), "require --sample");

    const char *bad_ci[] = {"prog", "--sample", "--sample-ci=huh"};
    EXPECT_EXIT(harness::BenchOptions::parse(3, bad_ci),
                testing::ExitedWithCode(2), "expects a number");

    const char *heatmap_vs_checkpoint[] = {
        "prog",           "--sample",          "--emit-json=out",
        "--checkpoint-dir=ckpt", "--heatmap"};
    EXPECT_EXIT(harness::BenchOptions::parse(5, heatmap_vs_checkpoint),
                testing::ExitedWithCode(2),
                "cannot be combined with --checkpoint-dir");
}

// ---------------------------------------------------------------------
// Trace-source skip().

TEST(TraceSourceSkipTest, MemorySourceSkipsInPlace)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(20));
    ASSERT_GT(t.size(), 30u);

    trace::MemoryTraceSource src(t);
    EXPECT_EQ(src.skip(10), 10u);
    trace::Record r;
    ASSERT_EQ(src.next(&r, 1), 1u);
    EXPECT_EQ(r, t[10]);

    // Skipping past the end reports the truncated count; the source
    // is then exhausted.
    const std::uint64_t rest = t.size() - 11;
    EXPECT_EQ(src.skip(t.size()), rest);
    EXPECT_EQ(src.next(&r, 1), 0u);
}

TEST(TraceSourceSkipTest, FileSourceSeeksPastRecords)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(10));
    const std::string path =
        testing::TempDir() + "/sampling_skip_test.sactrace";
    ASSERT_TRUE(trace::writeTraceFile(t, path));

    trace::FileTraceSource src(path);
    EXPECT_EQ(src.skip(5), 5u);
    trace::Record r;
    ASSERT_EQ(src.next(&r, 1), 1u);
    EXPECT_EQ(r, t[5]);

    const std::uint64_t rest = t.size() - 6;
    EXPECT_EQ(src.skip(t.size()), rest);
    EXPECT_EQ(src.next(&r, 1), 0u);
    std::remove(path.c_str());
}

TEST(TraceSourceSkipTest, SkipAtEofReturnsZeroOnSeekableSources)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(10));

    trace::MemoryTraceSource mem(t);
    EXPECT_EQ(mem.skip(t.size()), t.size());
    EXPECT_EQ(mem.skip(1), 0u);
    EXPECT_EQ(mem.skip(0), 0u);

    const std::string path =
        testing::TempDir() + "/sampling_skip_eof_test.sactrace";
    ASSERT_TRUE(trace::writeTraceFile(t, path));
    trace::FileTraceSource file(path);
    EXPECT_EQ(file.skip(t.size()), t.size());
    EXPECT_EQ(file.skip(1), 0u);
    trace::Record r;
    EXPECT_EQ(file.next(&r, 1), 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The windowed engine.

TEST(SampledEngineTest, ExactFallbackForShortTraces)
{
    // A trace shorter than one window is simulated entirely at full
    // detail: the report is exact, with zero-width intervals and the
    // full-run statistics.
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(10));
    const core::Config cfg = core::presets().get("soft");
    ASSERT_LT(t.size(), 1024u);

    const sim::SampledEngine engine(sim::SamplingOptions{});
    trace::MemoryTraceSource src(t);
    core::SoftwareAssistedCache sim(cfg);
    const auto rep = engine.run(src, sim);

    EXPECT_TRUE(rep.exact);
    EXPECT_EQ(rep.windows, 0u);
    EXPECT_EQ(rep.recordsDetailed, t.size());
    EXPECT_EQ(rep.recordsWarmed, 0u);
    EXPECT_EQ(rep.recordsSkipped, 0u);

    const auto full = core::simulateTrace(t, cfg);
    EXPECT_DOUBLE_EQ(rep.missRatioEstimate(), full.missRatio());
    EXPECT_DOUBLE_EQ(rep.amatEstimate(), full.amat());
    EXPECT_DOUBLE_EQ(rep.wordsPerAccessEstimate(),
                     full.wordsFetchedPerAccess());
    EXPECT_EQ(rep.halfWidthOf(rep.missRatio), 0.0);
}

TEST(SampledEngineTest, ZeroLengthTraceYieldsEmptyExactReport)
{
    // An empty stream must not divide by zero or spin: the report is
    // exact with zero of everything.
    const trace::Trace t("empty");
    const sim::SampledEngine engine(sim::SamplingOptions{});
    trace::MemoryTraceSource src(t);
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    const auto rep = engine.run(src, sim);

    EXPECT_TRUE(rep.exact);
    EXPECT_EQ(rep.windows, 0u);
    EXPECT_EQ(rep.recordsTotal, 0u);
    EXPECT_EQ(rep.recordsDetailed, 0u);
    EXPECT_EQ(rep.recordsWarmed, 0u);
    EXPECT_EQ(rep.recordsSkipped, 0u);
    EXPECT_EQ(rep.halfWidthOf(rep.missRatio), 0.0);
}

TEST(SampledEngineTest, WindowLongerThanTraceFallsBackToExact)
{
    // Explicitly configured geometry (not the defaults) whose window
    // alone exceeds the whole trace: full-detail fallback, one pass,
    // statistics equal to the unsampled run.
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(10));
    sim::SamplingOptions opt;
    opt.window = t.size() + 1000;
    opt.stride = 4 * opt.window;
    opt.warmup = 64;

    const sim::SampledEngine engine(opt);
    trace::MemoryTraceSource src(t);
    const core::Config cfg = core::presets().get("soft");
    core::SoftwareAssistedCache sim(cfg);
    const auto rep = engine.run(src, sim);

    EXPECT_TRUE(rep.exact);
    EXPECT_EQ(rep.recordsDetailed, t.size());
    EXPECT_EQ(rep.recordsSkipped, 0u);
    const auto full = core::simulateTrace(t, cfg);
    EXPECT_DOUBLE_EQ(rep.missRatioEstimate(), full.missRatio());
}

TEST(SampledEngineDeathTest, ConstructionIsFatalOnStrideUnderWindow)
{
    // The engine validates on construction, so a bad geometry never
    // reaches run(): the misconfiguration dies at the call site.
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 100;
    EXPECT_EXIT(sim::SampledEngine{opt}, testing::ExitedWithCode(1),
                "stride");
}

TEST(SampledEngineTest, ContiguousWindowsStayExact)
{
    // stride == window means every record is measured: still exact,
    // but now with per-window samples accumulated along the way.
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(40));
    sim::SamplingOptions opt;
    opt.window = 256;
    opt.stride = 256;
    opt.warmup = 0;

    const sim::SampledEngine engine(opt);
    trace::MemoryTraceSource src(t);
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    const auto rep = engine.run(src, sim);

    EXPECT_TRUE(rep.exact);
    EXPECT_EQ(rep.windows, t.size() / 256);
    EXPECT_EQ(rep.recordsDetailed, t.size());
    EXPECT_EQ(rep.recordsTotal, t.size());
}

TEST(SampledEngineTest, RecordAccountingAddsUp)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(120));
    sim::SamplingOptions opt;
    opt.window = 256;
    opt.stride = 2048;
    opt.warmup = 256;

    const sim::SampledEngine engine(opt);
    trace::MemoryTraceSource src(t);
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    const auto rep = engine.run(src, sim);

    EXPECT_FALSE(rep.exact);
    EXPECT_GT(rep.windows, 1u);
    EXPECT_GT(rep.recordsWarmed, 0u);
    EXPECT_GT(rep.recordsSkipped, 0u);
    EXPECT_EQ(rep.recordsTotal, rep.recordsDetailed +
                                    rep.recordsWarmed +
                                    rep.recordsSkipped);
    EXPECT_EQ(rep.recordsTotal, t.size());
}

TEST(SampledEngineTest, MaxWindowsCapSkipsTheRest)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(120));
    sim::SamplingOptions opt;
    opt.window = 256;
    opt.stride = 1024;
    opt.warmup = 0;
    opt.maxWindows = 3;

    const sim::SampledEngine engine(opt);
    trace::MemoryTraceSource src(t);
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    const auto rep = engine.run(src, sim);

    EXPECT_EQ(rep.windows, 3u);
    EXPECT_FALSE(rep.exact);
    EXPECT_EQ(rep.recordsTotal, t.size())
        << "the capped run still drains (skips) the whole stream";
    EXPECT_GT(rep.recordsSkipped,
              t.size() - 3 * opt.stride)
        << "everything after the last window is skipped, not simulated";
}

TEST(SampledEngineTest, AdaptiveModeStopsAtTargetError)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(200));
    sim::SamplingOptions opt;
    opt.window = 128;
    opt.stride = 512;
    opt.warmup = 0;
    opt.targetRelativeError = 0.5; // coarse: met after few windows
    opt.minWindows = 2;

    const sim::SampledEngine engine(opt);
    trace::MemoryTraceSource src(t);
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    const auto rep = engine.run(src, sim);

    EXPECT_GE(rep.windows, 2u);
    EXPECT_LT(rep.windows, t.size() / opt.stride)
        << "adaptive mode should stop well before the stream ends";
    EXPECT_LE(rep.missRatio.relativeError(opt.confidence),
              opt.targetRelativeError);
    EXPECT_EQ(rep.recordsTotal, t.size());
}

// ---------------------------------------------------------------------
// Warming-vs-detailed state differential.

void
expectWarmingMatchesDetailed(const core::Config &cfg,
                             const trace::Trace &t, std::size_t n)
{
    n = std::min(n, t.size());
    core::SoftwareAssistedCache detailed(cfg);
    core::SoftwareAssistedCache warming(cfg);
    detailed.runDetailed(t.data(), n);
    warming.runWarming(t.data(), n);

    EXPECT_EQ(check::stateDifference(detailed, warming), "")
        << "config " << cfg.cacheKey() << " diverged after " << n
        << " records";
    // Warming moved the architectural state but no statistics.
    EXPECT_EQ(warming.stats().accesses, 0u);
    EXPECT_EQ(warming.stats().misses, 0u);
    EXPECT_EQ(warming.stats().bytesFetched, 0u);
}

TEST(WarmingStateTest, MatchesDetailedBitForBitOnPresets)
{
    // Every preset, so set-associative, bypassing and prefetching
    // configurations (which the direct-mapped fuzz corpus below never
    // draws) warm against detailed replay too.
    const auto t = workloads::makeBenchmarkTrace("MV");
    for (const auto &p : core::presets().all()) {
        SCOPED_TRACE(p.key);
        expectWarmingMatchesDetailed(p.config, t, 4096);
    }
}

TEST(WarmingStateTest, MatchesDetailedOnFuzzCorpus)
{
    const check::TraceFuzzer fuzzer;
    for (std::uint64_t i = 0; i < 25; ++i) {
        const auto c = fuzzer.makeCase(i);
        SCOPED_TRACE("fuzz case " + std::to_string(i));
        expectWarmingMatchesDetailed(c.config, c.trace,
                                     c.trace.size());
    }
}

TEST(WarmingStateTest, StateDifferenceDetectsDivergence)
{
    // The differential has teeth: two sims fed different prefixes
    // must report a nonempty difference.
    const auto t = workloads::makeBenchmarkTrace("MV");
    const core::Config cfg = core::presets().get("soft");
    core::SoftwareAssistedCache a(cfg);
    core::SoftwareAssistedCache b(cfg);
    a.runDetailed(t.data(), 2048);
    b.runWarming(t.data(), 1024);
    EXPECT_NE(check::stateDifference(a, b), "");
}

TEST(WarmingStateTest, AuditorAcceptsWarmedState)
{
    // The structural invariants hold for state built purely by the
    // warming path.
    const auto t = workloads::makeBenchmarkTrace("MV");
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    sim.runWarming(t.data(), std::min<std::size_t>(t.size(), 8192));
    check::Auditor auditor(check::Auditor::OnViolation::Record);
    auditor.auditNow(sim);
    EXPECT_EQ(auditor.violationCount(), 0u);
}

// ---------------------------------------------------------------------
// Sampled-vs-full dual replay (the SampledDifferential suite; also
// run by the `sampling` leg of tools/check.sh and the fuzz target).

TEST(SampledDifferential, PaperWorkloadsWithinOnePercentMissRatio)
{
    // The acceptance bar of the sampling engine: on the figure 6/7
    // workloads, the sampled miss-ratio estimate stays within 1
    // percentage point (absolute) of the full-detail run at the
    // bench_simspeed sampling geometry.
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 8192;
    opt.warmup = 2048;
    const sim::SampledEngine engine(opt);

    for (const auto &bench : {"MV", "NAS", "LIV"}) {
        const auto t = workloads::makeBenchmarkTrace(bench);
        for (const auto &key : {"standard", "soft"}) {
            SCOPED_TRACE(std::string(bench) + "/" + key);
            const core::Config cfg = core::presets().get(key);
            const auto full = core::simulateTrace(t, cfg);

            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfg);
            const auto rep = engine.run(src, sim);

            ASSERT_GE(rep.windows, 2u);
            EXPECT_NEAR(rep.missRatioEstimate(), full.missRatio(),
                        0.01);
            // Traffic and AMAT estimates track the full run too
            // (looser: these have heavier per-window tails).
            EXPECT_NEAR(rep.wordsPerAccessEstimate(),
                        full.wordsFetchedPerAccess(),
                        0.25 * full.wordsFetchedPerAccess() + 0.05);
            EXPECT_NEAR(rep.amatEstimate(), full.amat(),
                        0.25 * full.amat());
        }
    }
}

TEST(SampledDifferential, FuzzCorpusEstimatesLandInsideIntervals)
{
    // Replay the fuzz corpus sampled-vs-full and check the reported
    // intervals: across all cases with enough windows to form an
    // interval, the full-run miss ratio must fall inside the 95%
    // interval for the overwhelming majority (a per-case guarantee
    // would be wrong — 1 in 20 misses is the design point), and the
    // mean absolute error must stay small.
    // Fuzz traces are short (a few hundred records), so the geometry
    // shrinks with them: 16-record windows every 48 records.
    sim::SamplingOptions opt;
    opt.window = 16;
    opt.stride = 48;
    opt.warmup = 16;
    const sim::SampledEngine engine(opt);

    const check::TraceFuzzer fuzzer;
    int eligible = 0;
    int inside = 0;
    double abs_err_sum = 0.0;
    for (std::uint64_t i = 0; i < 120; ++i) {
        const auto c = fuzzer.makeCase(i);
        if (c.trace.size() < 4 * opt.stride)
            continue; // too short for a meaningful interval

        const auto full = core::simulateTrace(c.trace, c.config);
        trace::MemoryTraceSource src(c.trace);
        core::SoftwareAssistedCache sim(c.config);
        const auto rep = engine.run(src, sim);
        if (rep.exact || rep.windows < 4)
            continue;

        ++eligible;
        const double err =
            std::fabs(rep.missRatioEstimate() - full.missRatio());
        abs_err_sum += err;
        if (err <= rep.halfWidthOf(rep.missRatio))
            ++inside;
    }
    ASSERT_GE(eligible, 40) << "fuzz corpus must provide enough "
                               "sampled-eligible cases";
    EXPECT_GE(inside, int(eligible * 0.85))
        << "only " << inside << "/" << eligible
        << " estimates fell inside their own interval";
    EXPECT_LE(abs_err_sum / eligible, 0.08);
}

} // namespace
