/**
 * @file
 * Tests of the request-oriented sweep API (src/harness/sweep.hh):
 * SweepRequest validation, engine routing, per-request timing, and
 * the differential proofs that Runner::run() reproduces direct engine
 * calls (core::simulateTrace, sim::SampledEngine) rendered by hand,
 * byte for byte (tables exactly; manifests modulo the wall-clock
 * "timing" object), and the manifest documents latched on stored
 * cells (ManifestLatch).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/harness/sweep.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/trace_source.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;
using harness::EngineSelect;
using harness::EngineTag;
using harness::Runner;
using harness::SweepRequest;
using harness::SweepResult;
using harness::Workload;
using util::Json;

Workload
mvWorkload(const std::string &name, int n)
{
    return {name,
            [name, n] {
                auto t = workloads::makeTaggedTrace(workloads::buildMv(n));
                t.setName(name);
                return t;
            },
            nullptr};
}

std::vector<Workload>
twoWorkloads()
{
    return {mvWorkload("MV-a", 28), mvWorkload("MV-b", 36)};
}

/** A stack-eligible lattice: plain LRU standard caches. */
std::vector<core::Config>
stackFamilyConfigs()
{
    auto small = core::presets().get("standard");
    auto large = core::presets().get("standard");
    large.name = "standard-64K";
    large.cacheSizeBytes = 64 * 1024;
    return {small, large};
}

/** A mixed lattice: two stack-eligible + one feature config. */
std::vector<core::Config>
mixedConfigs()
{
    auto out = stackFamilyConfigs();
    out.push_back(core::presets().get("soft"));
    return out;
}

sim::SamplingOptions
testSampling()
{
    sim::SamplingOptions opt;
    opt.window = 128;
    opt.stride = 1024;
    opt.warmup = 256;
    return opt;
}

/** All manifest documents under @p dir, keyed by file name. */
std::map<std::string, std::string>
readManifests(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() != ".json")
            continue;
        std::ifstream is(e.path());
        std::ostringstream os;
        os << is.rdbuf();
        out[e.path().filename().string()] = os.str();
    }
    return out;
}

/**
 * Normalize a manifest for comparison: drop the wall-clock "timing"
 * object (sim_seconds differs between any two runs), keep everything
 * else byte-exact via the ordered writer.
 */
std::string
stripTiming(const std::string &document)
{
    std::string err;
    auto parsed = Json::parse(document, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
    if (!parsed)
        return "";
    Json out = Json::object();
    for (const auto &member : parsed->members()) {
        if (member.first != "timing")
            out.set(member.first, member.second);
    }
    return out.dump(2);
}

void
expectManifestsEquivalent(const std::string &reference_dir,
                          const std::string &new_dir)
{
    const auto reference = readManifests(reference_dir);
    const auto fresh = readManifests(new_dir);
    ASSERT_EQ(reference.size(), fresh.size());
    for (const auto &entry : reference) {
        SCOPED_TRACE(entry.first);
        const auto it = fresh.find(entry.first);
        ASSERT_NE(it, fresh.end()) << "missing " << entry.first;
        EXPECT_EQ(stripTiming(entry.second), stripTiming(it->second));
    }
}

TEST(SweepRequestValidation, CatchesContradictions)
{
    SweepRequest req;
    EXPECT_NE(req.validationError(), std::nullopt); // no workloads

    req.workloads = twoWorkloads();
    EXPECT_NE(req.validationError(), std::nullopt); // no configs
    req.configs = stackFamilyConfigs();
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.engine = EngineSelect::SampledLivepoint;
    ASSERT_NE(req.validationError(), std::nullopt);
    EXPECT_NE(req.validationError()->find("checkpoint"),
              std::string::npos);
    req.checkpointDir = "ckpt";
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.engine = EngineSelect::Sampled;
    EXPECT_NE(req.validationError(), std::nullopt); // dir + plain sampled
    req.checkpointDir.clear();
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.telemetry.heatmap = true;
    EXPECT_NE(req.validationError(), std::nullopt); // instrument + sampled
    req.engine = EngineSelect::Auto;
    EXPECT_EQ(req.validationError(), std::nullopt);
    req.telemetry.heatmap = false;

    req.engine = EngineSelect::Stack;
    req.metric = harness::amatMetric(); // timing: not stack-derivable
    ASSERT_NE(req.validationError(), std::nullopt);
    EXPECT_NE(req.validationError()->find("stack"), std::string::npos);
    req.metric = harness::missRatioMetric();
    EXPECT_EQ(req.validationError(), std::nullopt);

    req.engine = EngineSelect::Sampled;
    req.sampling.window = 512;
    req.sampling.stride = 100; // stride < window
    ASSERT_NE(req.validationError(), std::nullopt);
    EXPECT_NE(req.validationError()->find("sampling"),
              std::string::npos);
}

TEST(SweepRequestValidation, EngineNamesRoundTrip)
{
    for (const EngineSelect e :
         {EngineSelect::Auto, EngineSelect::Exact, EngineSelect::Sampled,
          EngineSelect::SampledLivepoint, EngineSelect::Stack}) {
        const auto back =
            harness::engineSelectFromName(harness::engineSelectName(e));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, e);
    }
    EXPECT_FALSE(harness::engineSelectFromName("warp").has_value());
    EXPECT_STREQ(harness::engineName(EngineTag::SampledLivepoint),
                 "sampled-livepoint");
    EXPECT_STREQ(harness::engineName(EngineTag::StackSinglePass),
                 "stack-single-pass");
}

TEST(SweepRequestDifferential, ExactTableMatchesDirectReplay)
{
    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs();
    const auto metric = harness::amatMetric();

    Runner fresh;
    const SweepResult result =
        fresh.run(testref::request(ws, cfgs, metric, 2));
    EXPECT_EQ(result.table.toString(),
              testref::referenceTable(ws, cfgs, metric).toString());
    ASSERT_EQ(result.cells.size(), ws.size() * cfgs.size());
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const trace::Trace t = ws[wi].build();
        for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
            const auto &cell = result.at(wi, ci);
            EXPECT_EQ(cell.engine, EngineTag::ExactReplay); // AMAT
            EXPECT_TRUE(cell.stats == core::simulateTrace(t, cfgs[ci]))
                << cell.workload << " / " << cell.configName;
        }
    }
}

TEST(SweepRequestDifferential, ExactManifestsMatchReferenceRender)
{
    namespace fs = std::filesystem;
    const std::string reference_dir =
        testing::TempDir() + "/sweepreq_exact_reference";
    const std::string new_dir =
        testing::TempDir() + "/sweepreq_exact_new";
    fs::remove_all(reference_dir);
    fs::remove_all(new_dir);

    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs();
    const auto metric = harness::amatMetric();

    // Reference: direct replay, one manifest written per cell.
    for (const auto &w : ws) {
        const trace::Trace t = w.build();
        for (const auto &cfg : cfgs) {
            const sim::RunStats stats = core::simulateTrace(t, cfg);
            harness::ManifestCell mc;
            mc.workload = w.name;
            mc.config = &cfg;
            mc.stats = &stats;
            ASSERT_FALSE(harness::writeCellManifest(
                             reference_dir, mc, EngineTag::ExactReplay)
                             .empty());
        }
    }

    Runner fresh;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = metric;
    req.telemetry.manifestDir = new_dir;
    const SweepResult result = fresh.run(req);
    EXPECT_EQ(result.manifestFailures, 0u);
    EXPECT_EQ(result.manifestsWritten, ws.size() * cfgs.size());
    expectManifestsEquivalent(reference_dir, new_dir);

    fs::remove_all(reference_dir);
    fs::remove_all(new_dir);
}

TEST(SweepRequestDifferential, SampledMatchesDirectEngine)
{
    namespace fs = std::filesystem;
    const std::string reference_dir =
        testing::TempDir() + "/sweepreq_sampled_reference";
    const std::string new_dir =
        testing::TempDir() + "/sweepreq_sampled_new";
    fs::remove_all(reference_dir);
    fs::remove_all(new_dir);

    const auto ws = twoWorkloads();
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard"), core::presets().get("soft")};
    const auto metric = harness::missRatioMetric();
    const auto opt = testSampling();

    // Reference: one SampledEngine run per cell, rendered by hand as
    // "estimate ±half" and written as a sampled manifest.
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : cfgs)
        headers.push_back(cfg.name);
    util::Table expected(std::move(headers));
    std::vector<sim::SampleReport> reports;
    for (const auto &w : ws) {
        const trace::Trace t = w.build();
        const auto row = expected.addRow();
        expected.set(row, 0, w.name);
        for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfgs[ci]);
            reports.push_back(sim::SampledEngine(opt).run(src, sim));
            const sim::SampleReport &rep = reports.back();
            expected.set(row, ci + 1,
                         sim::formatWithCi(rep.missRatioEstimate(),
                                           rep.halfWidthOf(rep.missRatio),
                                           metric.decimals));
            harness::ManifestCell mc;
            mc.workload = w.name;
            mc.config = &cfgs[ci];
            mc.report = &rep;
            mc.sampling = &opt;
            ASSERT_FALSE(harness::writeCellManifest(reference_dir, mc,
                                                    EngineTag::Sampled)
                             .empty());
        }
    }

    Runner fresh;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = metric;
    req.engine = EngineSelect::Sampled;
    req.sampling = opt;
    req.telemetry.manifestDir = new_dir;
    const SweepResult result = fresh.run(req);
    EXPECT_EQ(result.table.toString(), expected.toString());
    ASSERT_EQ(result.cells.size(), reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(result.cells[i].engine, EngineTag::Sampled);
        ASSERT_TRUE(result.cells[i].report.has_value());
        EXPECT_TRUE(*result.cells[i].report == reports[i]);
        EXPECT_TRUE(result.cells[i].stats == reports[i].detailed);
    }
    expectManifestsEquivalent(reference_dir, new_dir);

    fs::remove_all(reference_dir);
    fs::remove_all(new_dir);
}

TEST(SweepRequestRouting, AutoServesStackFamilyByOnePass)
{
    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs(); // 2 stack-eligible + soft

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    const SweepResult result = r.run(req);

    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), ws.size());
    ASSERT_EQ(result.cells.size(), ws.size() * cfgs.size());
    for (const auto &cell : result.cells) {
        const bool expect_stack = cell.configName != "Soft.";
        EXPECT_EQ(cell.engine, expect_stack
                                   ? EngineTag::StackSinglePass
                                   : EngineTag::ExactReplay)
            << cell.workload << " / " << cell.configName;
    }
    // Only the fallback config was exact-replayed.
    EXPECT_EQ(r.runsExecuted(), ws.size());
}

TEST(SweepRequestRouting, ExactEngineDisablesStackDispatch)
{
    const auto ws = twoWorkloads();
    const auto cfgs = stackFamilyConfigs();

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::Exact;
    const SweepResult result = r.run(req);

    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), ws.size() * cfgs.size());
    for (const auto &cell : result.cells)
        EXPECT_EQ(cell.engine, EngineTag::ExactReplay);

    // Same table either way — the stack pass is bit-identical.
    Runner via_stack;
    SweepRequest stacked = req;
    stacked.engine = EngineSelect::Stack;
    EXPECT_EQ(via_stack.run(stacked).table.toString(),
              result.table.toString());
    EXPECT_GT(via_stack.stackCounter("stack.pass.traversals"), 0u);
}

TEST(SweepRequestRouting, ExactThenStackKeepTheirOwnCells)
{
    // One (workload, config) cell, first forced onto exact replay,
    // then requested under Auto inside a stack family on the same
    // runner: the store must keep both results apart, so the second
    // request gets a stack-single-pass manifest and count-only stats
    // instead of re-serving the exact cell (or vice versa).
    const auto ws = std::vector<Workload>{mvWorkload("MV-both", 32)};
    const auto family = stackFamilyConfigs();
    std::map<std::string, std::string> engines; // request -> engine
    const auto capture = [&engines](const std::string &tag) {
        return [&engines, tag](const std::string &,
                               const std::string &document) {
            const auto doc = Json::parse(document);
            ASSERT_TRUE(doc.has_value());
            engines[tag] = doc->find("engine")->asString();
        };
    };

    Runner r;
    auto exact = testref::request(ws, {family[0]},
                                  harness::missRatioMetric(), 1,
                                  EngineSelect::Exact);
    exact.telemetry.sink = capture("exact");
    const SweepResult first = r.run(exact);

    auto stacked = testref::request(ws, family, harness::missRatioMetric());
    stacked.telemetry.sink = capture("auto");
    const SweepResult second = r.run(stacked);

    EXPECT_EQ(first.at(0, 0).engine, EngineTag::ExactReplay);
    EXPECT_EQ(second.at(0, 0).engine, EngineTag::StackSinglePass);
    EXPECT_EQ(engines["exact"], "exact-replay");
    EXPECT_EQ(engines["auto"], "stack-single-pass");
    EXPECT_EQ(r.runsExecuted(), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);

    // Each carries its own engine's stats: the same miss count, but
    // only the exact replay models cycles.
    const sim::RunStats &exact_stats = first.at(0, 0).stats;
    const sim::RunStats &stack_stats = second.at(0, 0).stats;
    EXPECT_TRUE(exact_stats ==
                core::simulateTrace(ws[0].build(), family[0]));
    EXPECT_EQ(stack_stats.misses, exact_stats.misses);
    EXPECT_GT(exact_stats.totalAccessCycles, 0u);
    EXPECT_EQ(stack_stats.totalAccessCycles, 0u);
}

TEST(SweepRequestRouting, SampledCellsAreSharedAcrossRequests)
{
    const auto ws = twoWorkloads();
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::Sampled;
    req.sampling = testSampling();

    const SweepResult first = r.run(req);
    const std::size_t executed = r.runsExecuted();
    EXPECT_EQ(executed, ws.size());
    // A second identical request is served from the sampled store.
    const SweepResult second = r.run(req);
    EXPECT_EQ(r.runsExecuted(), executed);
    EXPECT_EQ(second.table.toString(), first.table.toString());
}

TEST(SweepRequestRouting, LivepointRequestsShareOneLibraryBuild)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/sweepreq_livepoint_lib";
    fs::remove_all(dir);

    const auto ws = std::vector<Workload>{mvWorkload("MV-lp", 40)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = EngineSelect::SampledLivepoint;
    req.sampling = testSampling();
    req.checkpointDir = dir;

    const SweepResult first = r.run(req);
    ASSERT_EQ(first.cells.size(), 1u);
    EXPECT_EQ(first.cells[0].engine, EngineTag::SampledLivepoint);
    EXPECT_EQ(r.checkpointCounter("checkpoint.misses"), 1u);

    // Re-running the same request on the same runner re-serves the
    // latched cell: one library build total, no second warm.
    r.run(req);
    EXPECT_EQ(r.checkpointCounter("checkpoint.misses"), 1u);
    EXPECT_EQ(r.checkpointCounter("checkpoint.hits"), 0u);

    fs::remove_all(dir);
}

TEST(SweepRequestTelemetry, SinkStreamsTheExactFileBytes)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/sweepreq_sink_dir";
    fs::remove_all(dir);

    const auto ws = std::vector<Workload>{mvWorkload("MV-sink", 24)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("soft")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::amatMetric();
    req.telemetry.manifestDir = dir;
    std::map<std::string, std::string> streamed;
    req.telemetry.sink = [&streamed](const std::string &file,
                                     const std::string &document) {
        streamed[file] = document;
    };
    const SweepResult result = r.run(req);
    EXPECT_EQ(result.manifestFailures, 0u);
    ASSERT_FALSE(streamed.empty());

    const auto on_disk = readManifests(dir);
    ASSERT_EQ(on_disk.size(), streamed.size());
    for (const auto &entry : streamed) {
        SCOPED_TRACE(entry.first);
        const auto it = on_disk.find(entry.first);
        ASSERT_NE(it, on_disk.end());
        EXPECT_EQ(entry.second, it->second); // byte-identical
    }
    fs::remove_all(dir);
}

TEST(SweepRequestTelemetry, DedupSetSuppressesRepeatedCells)
{
    const auto ws = std::vector<Workload>{mvWorkload("MV-dedup", 24)};
    const std::vector<core::Config> cfgs = {
        core::presets().get("soft")};

    Runner r;
    SweepRequest req;
    req.workloads = ws;
    req.configs = cfgs;
    req.metric = harness::amatMetric();
    std::set<std::pair<std::string, std::string>> seen;
    req.telemetry.dedup = &seen;
    std::size_t frames = 0;
    req.telemetry.sink = [&frames](const std::string &,
                                   const std::string &) { ++frames; };

    r.run(req);
    const std::size_t first = frames;
    EXPECT_GT(first, 0u);
    r.run(req);
    EXPECT_EQ(frames, first) << "second run must dedup every cell";
}

TEST(SweepRequestTiming, SampledRequestsReportTheirTiming)
{
    Runner r;
    auto req = testref::request(twoWorkloads(),
                                {core::presets().get("standard")},
                                harness::missRatioMetric(), 2,
                                EngineSelect::Sampled);
    req.sampling = testSampling();
    const SweepResult result = r.run(req);
    EXPECT_EQ(result.timing.jobs, 2u);
    EXPECT_GT(result.timing.wallSeconds, 0.0);
    EXPECT_GT(result.timing.busySeconds, 0.0);
    EXPECT_LE(result.timing.utilization(), 1.0 + 1e-9);
}

TEST(SweepRequestTiming, ConcurrentRequestsReportTheirOwnTiming)
{
    // Two requests with different job and cell counts run at once on
    // one runner; each result must carry its own executor's account,
    // never the other request's.
    std::vector<Workload> wide;
    for (int i = 0; i < 4; ++i)
        wide.push_back(mvWorkload("MV-wide" + std::to_string(i), 24 + i));
    const auto narrow = std::vector<Workload>{mvWorkload("MV-narrow", 30)};
    const auto cfgs = mixedConfigs();

    Runner r;
    SweepResult a;
    SweepResult b;
    double span_a = 0.0;
    double span_b = 0.0;
    const auto timed = [&r](const SweepRequest &req, SweepResult &out,
                            double &span) {
        const auto t0 = std::chrono::steady_clock::now();
        out = r.run(req);
        span = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    };
    std::thread ta(timed,
                   testref::request(wide, cfgs, harness::amatMetric(), 3),
                   std::ref(a), std::ref(span_a));
    std::thread tb(timed,
                   testref::request(narrow, cfgs, harness::amatMetric(), 1),
                   std::ref(b), std::ref(span_b));
    ta.join();
    tb.join();

    EXPECT_EQ(a.timing.jobs, 3u);
    EXPECT_EQ(b.timing.jobs, 1u);
    EXPECT_EQ(a.cells.size(), wide.size() * cfgs.size());
    EXPECT_EQ(b.cells.size(), narrow.size() * cfgs.size());
    for (const auto *res : {&a, &b}) {
        EXPECT_GT(res->timing.wallSeconds, 0.0);
        EXPECT_LE(res->timing.busySeconds,
                  res->timing.jobs * res->timing.wallSeconds *
                      (1.0 + 1e-9));
    }
    EXPECT_LE(a.timing.wallSeconds, span_a);
    EXPECT_LE(b.timing.wallSeconds, span_b);
}

// ---- Claim-first execution ------------------------------------------

/** A workload that streams @p t, calling @p before first. */
Workload
streamingWorkload(const std::string &name, const trace::Trace &t,
                  std::function<void()> before)
{
    return {name, [t] { return t; },
            [t, before](const trace::RecordSink &sink) {
                before();
                for (const trace::Record &rec : t)
                    sink(rec);
            }};
}

TEST(ClaimFirst, RequestFillsItsOwnCellsBeforeWaiting)
{
    // Request one holds workload H's cells inside H's stream, which
    // lets go only once workload F's stream has run. Request two asks
    // for H, then F, with one job: it must fill F before it waits for
    // H, or H's stream gives up waiting and says so.
    std::mutex m;
    std::condition_variable cv;
    bool holding = false, f_ran = false, released = false;
    const trace::Trace th = workloads::makeTaggedTrace(workloads::buildMv(20));
    const trace::Trace tf = workloads::makeTaggedTrace(workloads::buildMv(24));
    const Workload h = streamingWorkload("MV-hold", th, [&] {
        std::unique_lock<std::mutex> lock(m);
        holding = true;
        cv.notify_all();
        released = cv.wait_for(lock, std::chrono::seconds(10),
                               [&] { return f_ran; });
    });
    const Workload f = streamingWorkload("MV-free", tf, [&] {
        const std::lock_guard<std::mutex> lock(m);
        f_ran = true;
        cv.notify_all();
    });
    const auto cfgs = mixedConfigs();
    const auto exact = [&](std::vector<Workload> ws) {
        SweepRequest req =
            testref::request(std::move(ws), cfgs, harness::amatMetric(), 1);
        req.engine = EngineSelect::Exact;
        return req;
    };

    Runner r;
    SweepResult one, two;
    std::thread t1([&] { one = r.run(exact({h})); });
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return holding; });
    }
    std::thread t2([&] { two = r.run(exact({h, f})); });
    t1.join();
    t2.join();
    EXPECT_TRUE(released) << "request two waited before filling F";
    EXPECT_EQ(r.runsExecuted(), 2 * cfgs.size());
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
        EXPECT_TRUE(two.at(0, ci).stats == one.at(0, ci).stats);
        EXPECT_TRUE(two.at(0, ci).stats ==
                    core::simulateTrace(th, cfgs[ci]));
        EXPECT_TRUE(two.at(1, ci).stats ==
                    core::simulateTrace(tf, cfgs[ci]));
    }
}

TEST(ClaimFirst, ConcurrentExactRequestsMatchSerial)
{
    // Two requests over the same cells in opposite workload orders
    // race on one Runner, so each meets cells the other holds: every
    // cell is computed once, each stack cell counts once as fresh and
    // once as served from the store, and the tables equal serial runs.
    std::vector<Workload> ws;
    for (int i = 0; i < 3; ++i)
        ws.push_back(mvWorkload("MV-claim" + std::to_string(i), 22 + 6 * i));
    const std::vector<Workload> rev(ws.rbegin(), ws.rend());
    const auto cfgs = mixedConfigs();
    const auto req = [&](const std::vector<Workload> &w, unsigned jobs) {
        return testref::request(w, cfgs, harness::missRatioMetric(), jobs);
    };
    Runner serial_a, serial_b;
    const std::string want_a = serial_a.run(req(ws, 1)).table.toString();
    const std::string want_b = serial_b.run(req(rev, 1)).table.toString();
    const std::size_t stack_cells = ws.size() * 2; // two stack configs

    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        Runner r;
        std::string got_a, got_b;
        std::thread ta([&] { got_a = r.run(req(ws, 2)).table.toString(); });
        std::thread tb([&] { got_b = r.run(req(rev, 1)).table.toString(); });
        ta.join();
        tb.join();
        EXPECT_EQ(got_a, want_a);
        EXPECT_EQ(got_b, want_b);
        EXPECT_EQ(r.runsExecuted(), ws.size()); // one soft cell each
        EXPECT_EQ(r.stackCounter("stack.pass.cells"), stack_cells);
        EXPECT_EQ(r.stackCounter("stack.pass.cached_cells"), stack_cells);
    }
}

// ---- Latched manifest documents --------------------------------------

/** A run's result and every document it streamed, keyed by file. */
struct Emitted
{
    SweepResult result;
    std::map<std::string, std::string> documents;
};

Emitted
emitted(Runner &r, SweepRequest req)
{
    Emitted out;
    req.telemetry.sink = [&out](const std::string &file,
                                const std::string &document) {
        out.documents[file] = document;
    };
    out.result = r.run(req);
    return out;
}

/**
 * A fresh renderCellManifest() of @p cell (under @p cfg of @p req),
 * given the wall seconds and checkpoint block the emitted document
 * @p emitted recorded (neither is part of SweepResult).
 */
std::string
freshDocument(const SweepResult::Cell &cell, const core::Config &cfg,
              const SweepRequest &req, std::size_t family,
              const std::string &emitted)
{
    const auto parsed = Json::parse(emitted);
    EXPECT_TRUE(parsed.has_value());
    if (!parsed)
        return "";
    harness::ManifestCell mc;
    mc.workload = cell.workload;
    mc.config = &cfg;
    const Json *seconds = parsed->find("timing")->find("sim_seconds");
    mc.simSeconds = seconds ? seconds->asDouble() : 0.0;
    Json checkpoint;
    switch (cell.engine) {
      case EngineTag::ExactReplay:
        mc.stats = &cell.stats;
        break;
      case EngineTag::StackSinglePass:
        mc.stats = &cell.stats;
        mc.stackFamilySize = family;
        break;
      case EngineTag::Sampled:
      case EngineTag::SampledLivepoint:
        mc.report = &*cell.report;
        mc.sampling = &req.sampling;
        if (const Json *ck = parsed->find("metrics")->find("checkpoint")) {
            checkpoint = *ck;
            mc.checkpoint = &checkpoint;
        }
        break;
    }
    return telemetry::manifestDocument(
        harness::renderCellManifest(mc, cell.engine));
}

/** The "config_name" and stack "family_size" of a document. */
std::pair<std::string, std::uint64_t>
renderInputsOf(const std::string &document)
{
    const auto parsed = Json::parse(document);
    EXPECT_TRUE(parsed.has_value());
    if (!parsed)
        return {};
    const Json *stack = parsed->find("metrics")->find("stack");
    return {parsed->find("config_name")->asString(),
            stack ? stack->find("family_size")->asUint() : 0};
}

TEST(ManifestLatch, WarmReemissionMatchesAFreshRender)
{
    namespace fs = std::filesystem;
    const std::string library =
        testing::TempDir() + "/manifest_latch_library";
    fs::remove_all(library);

    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs(); // two stack-eligible + soft
    auto livepoint = testref::request(
        ws, {core::presets().get("standard"), core::presets().get("soft")},
        harness::missRatioMetric(), 2, EngineSelect::SampledLivepoint);
    livepoint.sampling = testSampling();
    livepoint.checkpointDir = library;
    const std::vector<SweepRequest> requests{
        testref::request(ws, cfgs, harness::amatMetric(), 2), // exact
        testref::request(ws, cfgs, harness::missRatioMetric(), 2),
        livepoint};
    const std::vector<EngineTag> engines{EngineTag::ExactReplay,
                                         EngineTag::StackSinglePass,
                                         EngineTag::SampledLivepoint};

    Runner r;
    for (std::size_t k = 0; k < requests.size(); ++k) {
        const SweepRequest &req = requests[k];
        SCOPED_TRACE(engineName(engines[k]));
        const Emitted cold = emitted(r, req);
        const std::uint64_t renders = r.manifestCounter("manifest.renders");
        const std::uint64_t reuses = r.manifestCounter("manifest.reuses");
        const Emitted warm = emitted(r, req);
        // The warm pass renders nothing and re-emits the cold bytes.
        EXPECT_EQ(r.manifestCounter("manifest.renders"), renders);
        EXPECT_EQ(r.manifestCounter("manifest.reuses"),
                  reuses + warm.result.cells.size());
        EXPECT_EQ(warm.documents, cold.documents);

        bool seen_engine = false;
        for (std::size_t wi = 0; wi < req.workloads.size(); ++wi) {
            for (std::size_t ci = 0; ci < req.configs.size(); ++ci) {
                const SweepResult::Cell &cell = warm.result.at(wi, ci);
                SCOPED_TRACE(cell.workload + " / " + cell.configName);
                seen_engine = seen_engine || cell.engine == engines[k];
                const auto it = warm.documents.find(cell.manifestFile);
                ASSERT_NE(it, warm.documents.end());
                EXPECT_EQ(it->second,
                          freshDocument(cell, req.configs[ci], req, 2,
                                        it->second));
            }
        }
        EXPECT_TRUE(seen_engine);
    }
    fs::remove_all(library);
}

TEST(ManifestLatch, StackFamilySizeIsPerRequest)
{
    const auto ws = std::vector<Workload>{mvWorkload("MV-family", 28)};
    const auto two = stackFamilyConfigs();
    auto three = two;
    three.push_back(core::presets().get("standard"));
    three.back().name = "standard-16K";
    three.back().cacheSizeBytes = 16 * 1024;

    Runner r;
    const auto metric = harness::missRatioMetric();
    const Emitted a = emitted(r, testref::request(ws, two, metric));
    const Emitted b = emitted(r, testref::request(ws, three, metric));
    const Emitted again = emitted(r, testref::request(ws, two, metric));

    const std::string &file = a.result.at(0, 0).manifestFile;
    ASSERT_EQ(a.result.at(0, 0).engine, EngineTag::StackSinglePass);
    ASSERT_EQ(b.result.at(0, 0).manifestFile, file); // one slot
    EXPECT_EQ(renderInputsOf(a.documents.at(file)).second, 2u);
    EXPECT_EQ(renderInputsOf(b.documents.at(file)).second, 3u);
    EXPECT_EQ(again.documents, a.documents);
}

TEST(ManifestLatch, ConfigNamesAreNeverShared)
{
    const auto ws = std::vector<Workload>{mvWorkload("MV-alias", 24)};
    const core::Config standard = core::presets().get("standard");
    core::Config alias = standard;
    alias.name = "standard-alias";
    ASSERT_EQ(alias.cacheKey(), standard.cacheKey());

    Runner r;
    const auto metric = harness::amatMetric();
    const Emitted first = emitted(r, testref::request(ws, {standard}, metric));
    const Emitted aliased = emitted(r, testref::request(ws, {alias}, metric));
    const Emitted again = emitted(r, testref::request(ws, {standard}, metric));

    const std::string &file = first.result.at(0, 0).manifestFile;
    EXPECT_EQ(renderInputsOf(first.documents.at(file)).first,
              standard.name);
    EXPECT_EQ(renderInputsOf(aliased.documents.at(file)).first,
              "standard-alias");
    const auto parsed = Json::parse(aliased.documents.at(file));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("config")->find("name")->asString(),
              "standard-alias");
    EXPECT_EQ(again.documents, first.documents);
}

TEST(ManifestLatch, HeatmapCellsKeepTheirProfile)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/manifest_latch_heatmap";
    fs::remove_all(dir);
    const auto ws = std::vector<Workload>{mvWorkload("MV-heat", 24)};
    const auto plain =
        testref::request(ws, {core::presets().get("soft")},
                         harness::amatMetric());
    const auto has_profile = [](const std::string &document) {
        const auto parsed = Json::parse(document);
        return parsed && parsed->find("profile") != nullptr;
    };

    Runner r;
    const Emitted before = emitted(r, plain); // latches the plain bytes
    auto heat = plain;
    heat.telemetry.heatmap = true;
    heat.telemetry.manifestDir = dir;
    const SweepResult written = r.run(heat);
    EXPECT_EQ(written.manifestFailures, 0u);
    const auto on_disk = readManifests(dir);
    ASSERT_EQ(on_disk.size(), 1u);
    EXPECT_TRUE(has_profile(on_disk.begin()->second));

    heat.telemetry.manifestDir.clear();
    const Emitted streamed = emitted(r, heat);
    ASSERT_EQ(streamed.documents.size(), 1u);
    EXPECT_TRUE(has_profile(streamed.documents.begin()->second));

    // The instrumented documents were never latched.
    const Emitted after = emitted(r, plain);
    EXPECT_FALSE(has_profile(after.documents.begin()->second));
    EXPECT_EQ(after.documents, before.documents);
    fs::remove_all(dir);
}

TEST(ManifestLatch, ConcurrentEmissionsAgree)
{
    // Both requests find every cell Filled and no document latched,
    // so they race to render and install the same slots.
    const auto ws = twoWorkloads();
    const auto cfgs = mixedConfigs();
    const auto req = testref::request(ws, cfgs, harness::amatMetric(), 2);
    Runner r;
    r.run(req);

    Emitted a;
    Emitted b;
    std::thread ta([&] { a = emitted(r, req); });
    std::thread tb([&] { b = emitted(r, req); });
    ta.join();
    tb.join();

    ASSERT_EQ(a.documents.size(), ws.size() * cfgs.size());
    EXPECT_EQ(a.documents, b.documents);
    EXPECT_EQ(r.manifestCounter("manifest.renders") +
                  r.manifestCounter("manifest.reuses"),
              2 * a.documents.size());
    // One document is stored per slot, whoever installed it.
    std::uint64_t bytes = 0;
    for (const auto &entry : a.documents)
        bytes += entry.second.size();
    EXPECT_EQ(r.manifestCounter("manifest.bytes"), bytes);

    const std::uint64_t renders = r.manifestCounter("manifest.renders");
    EXPECT_EQ(emitted(r, req).documents, a.documents);
    EXPECT_EQ(r.manifestCounter("manifest.renders"), renders);
}

// ---- Instrumented re-replay ------------------------------------------

/** Every file under @p dir, keyed by name; manifests without "timing". */
std::map<std::string, std::string>
readEmission(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream is(e.path());
        std::ostringstream os;
        os << is.rdbuf();
        const std::string name = e.path().filename().string();
        out[name] = e.path().extension() == ".json" ? stripTiming(os.str())
                                                    : os.str();
    }
    return out;
}

TEST(InstrumentedReplay, StreamedWorkloadIsNeverMaterialized)
{
    // --interval/--heatmap re-replay each exact cell; for a workload
    // whose trace the runner does not hold, the re-replay must read
    // its stream, as the traversal did, and emit what a resident
    // trace's sweep emits.
    namespace fs = std::filesystem;
    const std::string root = testing::TempDir() + "/instrumented_stream";
    fs::remove_all(root);
    const trace::Trace t = workloads::makeTaggedTrace(workloads::buildMv(24));
    int builds = 0;
    const Workload w{"MV-instr",
                     [&builds, &t] {
                         ++builds;
                         return t;
                     },
                     [&t](const trace::RecordSink &sink) {
                         for (const trace::Record &rec : t)
                             sink(rec);
                     }};
    const std::vector<core::Config> cfgs{core::presets().get("soft"),
                                         core::presets().get("victim")};
    const auto sweep = [&](bool resident, const std::string &dir) {
        SweepRequest req = testref::request({w}, cfgs, harness::amatMetric(),
                                            2, EngineSelect::Exact);
        req.telemetry.manifestDir = dir;
        req.telemetry.intervalRecords = 100;
        req.telemetry.heatmap = true;
        Runner r;
        if (resident)
            r.warmup({w});
        const SweepResult res = r.run(req);
        EXPECT_EQ(res.manifestFailures, 0u);
        EXPECT_EQ(res.manifestsWritten, cfgs.size());
        return readEmission(dir);
    };
    const auto from_stream = sweep(false, root + "/streamed");
    EXPECT_EQ(builds, 0);
    const auto from_trace = sweep(true, root + "/resident");
    EXPECT_EQ(builds, 1);
    // Two manifests, each with its interval series.
    EXPECT_EQ(from_stream.size(), 2 * cfgs.size());
    EXPECT_EQ(from_stream, from_trace);
    fs::remove_all(root);
}

} // namespace
