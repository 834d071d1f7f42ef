/**
 * @file
 * Tests of the streaming simulation engine and the Config API
 * redesign: chunked trace sources must replay bit-identically to
 * materialized traces (for any chunk size), Runner::run's chunked
 * traversal of a streamed workload must match resident and direct
 * replay and share one traversal between concurrent requests, an
 * unobserved whole-trace replay must match the audited chunked run()
 * on the fuzz corpus, and the Builder / preset registry
 * must agree with the legacy factories and reject the configurations
 * validate() is documented to reject.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/sim/run_stats.hh"
#include "src/trace/trace_io.hh"
#include "src/trace/trace_source.hh"
#include "src/util/distribution.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"
#include "tests/shadowed_sim.hh"

namespace {

using namespace sac;
using core::Config;

/**
 * Wraps another source and clamps every next() call to a fixed chunk
 * size, so the replay loop is exercised at chunk sizes other than its
 * internal default.
 */
class ThrottledSource : public trace::TraceSource
{
  public:
    ThrottledSource(trace::TraceSource &inner, std::size_t chunk)
        : inner_(inner), chunk_(chunk)
    {
    }

    std::size_t
    next(trace::Record *out, std::size_t max) override
    {
        return inner_.next(out, max < chunk_ ? max : chunk_);
    }

    std::uint64_t skip(std::uint64_t n) override { return inner_.skip(n); }

    const std::string &name() const override { return inner_.name(); }

  private:
    trace::TraceSource &inner_;
    std::size_t chunk_;
};

/** A deterministic handful of adversarial (config, trace) cases. */
std::vector<check::FuzzCase>
fuzzCases(std::size_t n)
{
    const check::TraceFuzzer fuzzer;
    std::vector<check::FuzzCase> cases;
    cases.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        cases.push_back(fuzzer.makeCase(i));
    return cases;
}

/**
 * Pull @p src chunk by chunk with next() and replay each chunk into a
 * fresh simulator of @p cfg, then finish(): the Runner's streamed
 * traversal in miniature.
 */
sim::RunStats
replayStreamed(trace::TraceSource &src, const Config &cfg)
{
    test::ShadowedCache sim(cfg);
    std::vector<trace::Record> chunk(trace::TraceSource::defaultChunkRecords);
    std::size_t n;
    while ((n = src.next(chunk.data(), chunk.size())) > 0)
        sim.replay(chunk.data(), n);
    sim.finish();
    return sim.stats();
}

// --- Streamed replay is bit-identical to materialized replay -------

TEST(Streaming, ChunkedReplayMatchesMaterializedExactly)
{
    // The ISSUE's differential requirement: streamed chunked replay
    // of seeded fuzz traces produces bit-identical RunStats to the
    // materialized replay, for chunk sizes 1, 7 and 4096.
    const std::size_t chunks[] = {1, 7, 4096};
    for (const auto &c : fuzzCases(24)) {
        const sim::RunStats materialized =
            core::simulateTrace(c.trace, c.config);
        for (const std::size_t chunk : chunks) {
            trace::MemoryTraceSource mem(c.trace);
            ThrottledSource throttled(mem, chunk);
            const sim::RunStats streamed =
                replayStreamed(throttled, c.config);
            EXPECT_TRUE(streamed == materialized)
                << "case seed 0x" << std::hex << c.seed << std::dec
                << " chunk " << chunk << " diverged: "
                << sim::describeDivergence(sim::countsOf(materialized),
                                           sim::countsOf(streamed));
        }
    }
}

TEST(Streaming, FileSourceMatchesMaterializedExactly)
{
    const auto c = fuzzCases(1).front();
    const std::string path =
        testing::TempDir() + "sac_streaming_test.sactrace";
    ASSERT_TRUE(trace::writeTraceFile(c.trace, path));

    trace::FileTraceSource file(path);
    ASSERT_TRUE(file.ok());
    const sim::RunStats streamed = replayStreamed(file, c.config);
    EXPECT_FALSE(file.failed());
    EXPECT_TRUE(streamed == core::simulateTrace(c.trace, c.config));
    std::remove(path.c_str());
}

// --- Runner::run traverses streamed workloads chunk by chunk -------

/**
 * The tagged MV trace of order @p n as a workload that streams;
 * @p builds counts the calls that materialize it.
 */
harness::Workload
streamedMv(std::int64_t n, std::atomic<int> &builds)
{
    return {"MV" + std::to_string(n),
            [n, &builds] {
                ++builds;
                return workloads::makeTaggedTrace(workloads::buildMv(n));
            },
            [n](const trace::RecordSink &sink) {
                workloads::streamTaggedTrace(workloads::buildMv(n), sink);
            }};
}

/** Stack-family configs (plain LRU) plus exact fallback configs. */
std::vector<Config>
mixedConfigs()
{
    std::vector<Config> out;
    for (const std::uint32_t ways : {1u, 2u, 4u}) {
        Config c = core::presets().get("standard");
        c.assoc = ways;
        c.name = "LRU " + std::to_string(ways) + "-way";
        out.push_back(c);
    }
    for (const char *key : {"victim", "soft", "soft-prefetch"})
        out.push_back(core::presets().get(key));
    return out;
}

TEST(Streaming, RunMatchesResidentAndDirectReplay)
{
    // MV 80 is 12960 records (3 chunks + 672), MV 20 is 840 (less
    // than one chunk).
    std::atomic<int> builds{0};
    const std::vector<harness::Workload> ws = {streamedMv(80, builds),
                                               streamedMv(20, builds)};
    const auto configs = mixedConfigs();

    std::vector<trace::Trace> traces;
    for (const auto &w : ws)
        traces.push_back(w.build());
    ASSERT_NE(traces[0].size() % trace::TraceSource::defaultChunkRecords,
              0u);
    ASSERT_LT(traces[1].size(), trace::TraceSource::defaultChunkRecords);
    builds = 0;

    for (const unsigned jobs : {1u, 3u}) {
        const auto request = testref::request(
            ws, configs, harness::missRatioMetric(), jobs);
        harness::Runner streamed;
        const auto s = streamed.run(request);
        EXPECT_EQ(builds.load(), 0) << "a streamed trace materialized";
        EXPECT_EQ(streamed.tracesGenerated(), ws.size());
        EXPECT_EQ(streamed.stackCounter("stack.pass.traversals"),
                  ws.size());

        harness::Runner resident;
        resident.warmup(ws);
        const auto r = resident.run(request);

        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            std::vector<sim::StackPoint> points;
            for (std::size_t ci = 0; ci < 3; ++ci)
                points.push_back(harness::stackPointOf(configs[ci]));
            sim::StackDistanceEngine eng(points);
            eng.feed(traces[wi].data(), traces[wi].size());
            for (std::size_t ci = 0; ci < configs.size(); ++ci) {
                const bool stack = ci < 3;
                ASSERT_EQ(s.at(wi, ci).engine,
                          stack ? harness::EngineTag::StackSinglePass
                                : harness::EngineTag::ExactReplay);
                const sim::RunStats direct =
                    stack ? harness::stackStatsFor(eng, configs[ci])
                          : core::simulateTrace(traces[wi], configs[ci]);
                EXPECT_TRUE(s.at(wi, ci).stats == direct)
                    << ws[wi].name << " " << configs[ci].name
                    << " jobs=" << jobs;
                EXPECT_TRUE(r.at(wi, ci).stats == direct)
                    << ws[wi].name << " " << configs[ci].name
                    << " jobs=" << jobs;
            }
        }
        builds = 0;
    }
}

TEST(Streaming, StreamedTaggedTraceYieldsMaterializedRecordsInOrder)
{
    // The streaming entry of the tagging pipeline emits exactly the
    // materialized records, in order, under the Figure 4b model and
    // under a custom issue-time distribution.
    const util::DiscreteDistribution slow({{8, 1.0}});
    for (const util::DiscreteDistribution *deltas :
         {static_cast<const util::DiscreteDistribution *>(nullptr),
          &slow}) {
        const trace::Trace t =
            deltas ? workloads::makeTaggedTraceWithTiming(
                         workloads::buildMv(30), *deltas, 11)
                   : workloads::makeTaggedTrace(workloads::buildMv(30),
                                                11);
        std::vector<trace::Record> streamed;
        workloads::streamTaggedTrace(
            workloads::buildMv(30),
            [&streamed](const trace::Record &r) { streamed.push_back(r); },
            11, deltas);
        ASSERT_EQ(streamed.size(), t.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            ASSERT_TRUE(streamed[i] == t[i]) << "record " << i;
    }
}

TEST(Streaming, RunMaterializesWorkloadsWithoutStream)
{
    // A workload without stream is materialized once, through
    // traceOf(), and replays exactly like the trace it builds.
    const auto c = fuzzCases(3).back();
    int builds = 0;
    const harness::Workload w{"no-stream",
                              [&c, &builds] {
                                  ++builds;
                                  return c.trace;
                              },
                              nullptr};
    const auto configs = mixedConfigs();
    harness::Runner runner;
    const auto result = runner.run(testref::request(
        {w}, configs, harness::amatMetric(), 1,
        harness::EngineSelect::Exact));
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(runner.tracesGenerated(), 1u);
    for (std::size_t ci = 0; ci < configs.size(); ++ci)
        EXPECT_TRUE(result.at(0, ci).stats ==
                    core::simulateTrace(c.trace, configs[ci]))
            << configs[ci].name;
}

TEST(Streaming, ConcurrentRequestsShareOneTraversal)
{
    // Overlapping requests on one workload from two threads: the
    // shared stack family is one traversal and every exact cell runs
    // once, whichever request claims it.
    const auto configs = mixedConfigs();
    const std::vector<Config> a = {configs[0], configs[1], configs[2],
                                   configs[3], configs[4]};
    const std::vector<Config> b = {configs[0], configs[1], configs[2],
                                   configs[4], configs[5]};
    std::atomic<int> builds{0};
    const auto w = streamedMv(40, builds);
    const trace::Trace t = w.build();

    for (int round = 0; round < 8; ++round) {
        harness::Runner runner;
        harness::SweepResult ra, rb;
        std::thread ta([&] {
            ra = runner.run(testref::request(
                {w}, a, harness::missRatioMetric(), 2));
        });
        std::thread tb([&] {
            rb = runner.run(testref::request(
                {w}, b, harness::missRatioMetric(), 2));
        });
        ta.join();
        tb.join();
        EXPECT_EQ(runner.runsExecuted(), 3u) << "round " << round;
        EXPECT_EQ(runner.stackCounter("stack.pass.traversals"), 1u)
            << "round " << round;
        for (std::size_t ci = 3; ci < a.size(); ++ci)
            EXPECT_TRUE(ra.at(0, ci).stats ==
                        core::simulateTrace(t, a[ci]));
        for (std::size_t ci = 3; ci < b.size(); ++ci)
            EXPECT_TRUE(rb.at(0, ci).stats ==
                        core::simulateTrace(t, b[ci]));
        for (std::size_t ci = 0; ci < 3; ++ci)
            EXPECT_TRUE(ra.at(0, ci).stats == rb.at(0, ci).stats);
    }
}

TEST(Streaming, FailedTraversalReleasesItsClaims)
{
    // A traversal that throws hands its cells back: the request
    // fails, and the next request over the same cells computes them.
    std::atomic<int> builds{0};
    harness::Workload w = streamedMv(20, builds);
    const auto good_stream = w.stream;
    bool fail = true;
    w.stream = [&](const trace::RecordSink &sink) {
        if (fail)
            throw std::runtime_error("generator failed");
        good_stream(sink);
    };
    const auto request = testref::request(
        {w}, mixedConfigs(), harness::missRatioMetric(), 1);
    harness::Runner runner;
    EXPECT_THROW(runner.run(request), std::runtime_error);
    EXPECT_EQ(runner.runsExecuted(), 0u);
    fail = false;
    const auto result = runner.run(request);
    EXPECT_EQ(runner.runsExecuted(), 3u);
    const trace::Trace t = w.build();
    EXPECT_TRUE(result.at(0, 4).stats ==
                core::simulateTrace(t, core::presets().get("soft")));
}

// --- Observers and chunking change no counter ----------------------

TEST(Classify, FuzzCasesMatchOnSuppliedOutcomes)
{
    for (const auto &c : fuzzCases(16)) {
        const auto out = check::runCase(c);
        EXPECT_FALSE(out.outcomesDiverged) << out.outcomesDivergence;
        EXPECT_TRUE(out.ok()) << "case seed 0x" << std::hex << c.seed;
    }
}

// --- Config::validationError rejects what validate() documents -----

TEST(ConfigValidation, RejectsVirtualLineNotMultipleOfLine)
{
    Config c = core::presets().get("standard");
    c.virtualLines = true;
    c.lineBytes = 32;
    c.virtualLineBytes = 48;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, RejectsVirtualLineSmallerThanLine)
{
    Config c = core::presets().get("standard");
    c.virtualLines = true;
    c.lineBytes = 32;
    c.virtualLineBytes = 16;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, RejectsNonPowerOfTwoLineMultiple)
{
    // 96 = 3 lines: a multiple, but handleMiss aligns virtual blocks
    // with a power-of-two mask, so 3-line blocks would misalign.
    Config c = core::presets().get("standard");
    c.virtualLines = true;
    c.lineBytes = 32;
    c.virtualLineBytes = 96;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, RejectsPrefetchWithZeroDegree)
{
    Config c = core::presets().get("soft-prefetch");
    c.prefetchDegree = 0;
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(ConfigValidation, AcceptsEveryPreset)
{
    for (const auto &p : core::presets().all())
        EXPECT_FALSE(p.config.validationError().has_value())
            << p.key << ": " << p.config.validationError().value_or("");
}

// --- Builder and preset registry -----------------------------------

TEST(ConfigBuilder, BuildsTheSoftConfiguration)
{
    const Config built = Config::builder()
                             .name("Soft.")
                             .auxLines(8)
                             .victims()
                             .bounceBack()
                             .temporalBits()
                             .virtualLines(64)
                             .build();
    EXPECT_EQ(built.cacheKey(), core::presets().get("soft").cacheKey());
    EXPECT_EQ(built.name, core::presets().get("soft").name);
}

TEST(ConfigBuilder, BuildUncheckedSkipsValidation)
{
    // build() would fatal on this (prefetch needs an aux cache);
    // buildUnchecked() hands it back for validationError() to report.
    const Config c =
        Config::builder().prefetch().buildUnchecked();
    ASSERT_TRUE(c.validationError().has_value());
}

TEST(PresetRegistry, NamesAreStableAndResolvable)
{
    const auto &reg = core::presets();
    const std::vector<std::string> expected = {
        "standard",       "victim",
        "soft",           "soft-temporal",
        "soft-spatial",   "variable",
        "bypass",         "bypass-buffer",
        "2way",           "2way-victim",
        "soft-2way",      "simplified-soft-2way",
        "standard-prefetch", "soft-prefetch"};
    EXPECT_EQ(reg.names(), expected);
    for (const auto &key : expected) {
        EXPECT_TRUE(reg.contains(key));
        EXPECT_FALSE(reg.get(key).name.empty());
    }
    EXPECT_FALSE(reg.contains("no-such-preset"));
}

TEST(PresetRegistry, PresetsMatchLegacyFactories)
{
    const auto &reg = core::presets();
    EXPECT_EQ(reg.get("standard").cacheKey(),
              core::presets().get("standard").cacheKey());
    EXPECT_EQ(reg.get("victim").cacheKey(),
              core::presets().get("victim").cacheKey());
    EXPECT_EQ(reg.get("soft").cacheKey(),
              core::presets().get("soft").cacheKey());
    EXPECT_EQ(reg.get("variable").cacheKey(),
              core::presets().get("variable").cacheKey());
    EXPECT_EQ(reg.get("bypass").cacheKey(),
              core::presets().get("bypass").cacheKey());
    EXPECT_EQ(reg.get("bypass-buffer").cacheKey(),
              core::presets().get("bypass-buffer").cacheKey());
    EXPECT_EQ(reg.get("soft-prefetch").cacheKey(),
              core::presets().get("soft-prefetch").cacheKey());
    EXPECT_EQ(reg.get("simplified-soft-2way").cacheKey(),
              core::presets().get("simplified-soft-2way").cacheKey());
}

} // namespace
