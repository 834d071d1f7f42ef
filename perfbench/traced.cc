/**
 * @file
 * The traced run: the workload's cells repeated one layer call at a
 * time, each call wrapped in a span recorded by this file. Per-layer
 * metrics come from the spans; the spans are written as a Chrome
 * trace_event file at the end.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>

#include "bench.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/locality/analyzer.hh"
#include "src/loopnest/generator.hh"
#include "src/service/server.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace_source.hh"

namespace sacbench {

using namespace sac;
namespace fs = std::filesystem;

namespace {

/** The timing-model seed of every paper trace (makeTaggedTrace). */
constexpr std::uint64_t timingSeed = 0x7ac3ull;

/** The tagging pipeline of @p b, one spanned layer call at a time. */
trace::Trace
tracedPipeline(Spans &spans, const workloads::Benchmark &b, int parent)
{
    int id = spans.begin("workloads.build", parent);
    loopnest::Program program = b.build();
    program.finalize();
    spans.end(id);
    id = spans.begin("locality.analyze", parent);
    const locality::AnalysisResult analysis = locality::analyze(program);
    spans.end(id);
    id = spans.begin("loopnest.generate", parent);
    trace::TimingModel timing(timingSeed);
    loopnest::TraceGenerator gen(program, analysis.tags, timing);
    trace::Trace t(b.name);
    gen.run(t);
    spans.end(id);
    return t;
}

/** One exact, stack or sampled cell and its result. */
struct Cell
{
    std::string workload;
    core::Config config;
    harness::EngineTag engine = harness::EngineTag::ExactReplay;
    sim::RunStats stats{};
    sim::SampleReport report{};
    std::size_t familySize = 0;
};

/** Summed duration (s) of the direct children of span @p id. */
double
childSeconds(const Spans &spans, int id)
{
    double total = 0.0;
    for (const auto &s : spans.snapshot()) {
        if (s.parent == id)
            total += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    return total;
}

/** Rate helper: @p n per @p s seconds (0 when nothing was timed). */
double
rate(double n, double s)
{
    return s > 0.0 ? n / s : 0.0;
}

} // namespace

bool
runTraced(const Options &opt, Golden &golden, Report &report)
{
    Spans spans;
    const bool cold = opt.workload == "cold-reproduce";
    const bool sacd = opt.workload == "sacd-mixed";
    const int root = spans.begin("run." + opt.workload);
    const auto paper = paperPrograms(opt.small);
    std::vector<workloads::Benchmark> programs = paper;
    if (cold) {
        for (auto &k : kernelPrograms(opt.small))
            programs.push_back(std::move(k));
    }

    // 1. workloads -> locality -> loopnest, per trace.
    std::vector<SharedTrace> traces;
    std::map<std::string, SharedTrace> byName;
    double generated = 0.0;
    for (const auto &b : programs) {
        auto t = std::make_shared<const trace::Trace>(
            tracedPipeline(spans, b, root));
        ++report.attempted;
        golden.check("trace|" + b.name, hex64(sim::hashTrace(*t)), report);
        generated += static_cast<double>(t->size());
        byName[b.name] = t;
        traces.push_back(std::move(t));
    }
    std::vector<SharedTrace> paperTraces(traces.begin(),
                                         traces.begin() + paper.size());
    report.add("workloads.build_s", spans.total("workloads.build"), "s");
    report.add("locality.analyze_s", spans.total("locality.analyze"), "s");
    report.add("loopnest.generate_s", spans.total("loopnest.generate"),
               "s");
    report.add("loopnest.records_per_s",
               rate(generated, spans.total("loopnest.generate")), "1/s");

    // 2. core: exact replay of the workload's exact cells.
    std::vector<Cell> cells;
    if (cold) {
        for (const auto &nr : coldRequests(opt.small, opt.jobs)) {
            for (const auto &w : nr.request.workloads) {
                for (const auto &cfg : nr.request.configs) {
                    const bool seen = std::any_of(
                        cells.begin(), cells.end(), [&](const Cell &c) {
                            return c.workload == w.name &&
                                   c.config.cacheKey() == cfg.cacheKey();
                        });
                    if (!seen)
                        cells.push_back({w.name, cfg});
                }
            }
        }
    } else {
        const auto keys =
            sacd ? core::presets().names() : sampledPresets();
        for (const auto &b : paper) {
            for (const auto &cfg : presetConfigs(keys))
                cells.push_back({b.name, cfg});
        }
    }
    std::map<std::string, std::pair<double, double>> byPreset;
    const std::vector<std::string> rated{"standard", "soft",
                                         "soft-prefetch"};
    double replay = 0.0;
    double cellMax = 0.0;
    std::map<std::pair<std::string, std::string>, double> cellSeconds;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &c = cells[i];
        const trace::Trace &t = *byName.at(c.workload);
        const int id = spans.begin("core.simulate", root, i + 1);
        c.stats = core::simulateTrace(t, c.config);
        const double s = spans.end(id);
        replay += s;
        cellMax = std::max(cellMax, s);
        cellSeconds[{c.workload, c.config.cacheKey()}] = s;
        for (const auto &key : rated) {
            if (c.config.cacheKey() == core::presets().get(key).cacheKey()) {
                byPreset[key].first += static_cast<double>(t.size());
                byPreset[key].second += s;
            }
        }
    }
    // Classifier share: Soft with and without three-C classification,
    // back to back on each paper trace.
    const core::Config soft = core::presets().get("soft");
    core::Config unclassified = soft;
    unclassified.classifyMisses = false;
    double softSeconds = 0.0;
    double unclassifiedSeconds = 0.0;
    for (const auto &t : paperTraces) {
        int id = spans.begin("sim.classifier_on", root);
        core::simulateTrace(*t, soft);
        softSeconds += spans.end(id);
        id = spans.begin("sim.classifier_off", root);
        core::simulateTrace(*t, unclassified);
        unclassifiedSeconds += spans.end(id);
    }
    report.add("core.replay_s", replay, "s");
    for (const auto &key : rated)
        report.add("core.records_per_s." + key,
                   rate(byPreset[key].first, byPreset[key].second), "1/s");
    report.add("core.cell_s_max", cellMax, "s");
    report.add("sim.classifier_share",
               softSeconds > 0.0 ? 1.0 - unclassifiedSeconds / softSeconds
                                 : 0.0,
               "ratio");
    // The kernels' traces are only needed by the exact cells.
    byName.clear();
    traces.clear();

    // 3. sim: one stack pass per paper trace over the lattice.
    const auto lattice = standardLattice();
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : lattice)
        points.push_back(harness::stackPointOf(cfg));
    double stackWork = 0.0;
    for (const auto &t : paperTraces) {
        sim::StackDistanceEngine engine(points);
        trace::MemoryTraceSource src(*t);
        const int id = spans.begin("sim.stack", root);
        engine.run(src);
        spans.end(id);
        stackWork += static_cast<double>(t->size() * lattice.size());
        for (const auto &cfg : lattice) {
            Cell c{t->name(), cfg, harness::EngineTag::StackSinglePass};
            c.stats = harness::stackStatsFor(engine, cfg);
            c.familySize = lattice.size();
            cells.push_back(std::move(c));
        }
    }
    report.add("sim.stack_s", spans.total("sim.stack"), "s");
    report.add("sim.stack_records_x_configs_per_s",
               rate(stackWork, spans.total("sim.stack")), "1/s");

    // 4. sim: live-point restore and window replay.
    const std::string library = opt.outDir + "/traced-lib";
    fs::remove_all(library);
    {
        const int id = spans.begin("setup.libraries", root);
        buildLibraries(paperTraces, library, opt.jobs);
        spans.end(id);
    }
    const sim::SampledEngine sampler(samplingGeometry());
    std::uint64_t loads = 0;
    std::uint64_t hits = 0;
    std::uint64_t bytes = 0;
    std::uint64_t windows = 0;
    for (const auto &t : paperTraces) {
        const std::uint64_t hash = sim::hashTrace(*t);
        for (const auto &cfg : presetConfigs(sampledPresets())) {
            sim::CheckpointKey key;
            key.traceHash = hash;
            key.configKey = cfg.cacheKey();
            key.window = sampler.options().window;
            key.stride = sampler.options().stride;
            key.warmup = sampler.options().warmup;
            sim::CheckpointLibrary lib;
            int id = spans.begin("sim.checkpoint_load", root);
            const auto loaded = lib.load(
                sim::CheckpointLibrary::pathFor(library, t->name(), key),
                key);
            spans.end(id);
            ++loads;
            ++report.attempted;
            if (loaded != sim::CheckpointLibrary::LoadResult::Hit) {
                report.fail("live-point library of " + t->name() +
                            " did not load");
                continue;
            }
            ++hits;
            bytes += lib.loadedBytes();
            Cell c{t->name(), cfg, harness::EngineTag::SampledLivepoint};
            core::SoftwareAssistedCache sim(cfg);
            trace::MemoryTraceSource src(*t);
            id = spans.begin("sim.window_replay", root);
            c.report = sampler.runCheckpointed(src, sim, lib);
            spans.end(id);
            windows += c.report.windows;
            if (c.report.exact)
                report.fail("sampled cell of " + t->name() +
                            " fell back to exact replay");
            cells.push_back(std::move(c));
        }
    }
    report.add("sim.checkpoint_load_s", spans.total("sim.checkpoint_load"),
               "s");
    report.add("sim.checkpoint_bytes", static_cast<double>(bytes), "bytes");
    report.add("sim.checkpoint_hit_frac",
               rate(static_cast<double>(hits), static_cast<double>(loads)),
               "ratio");
    report.add("sim.window_replay_s", spans.total("sim.window_replay"),
               "s");
    report.add("sim.windows", static_cast<double>(windows), "count");

    // 5. harness: the workload's requests through Runner::run, once
    // untraced and once with spans around each request and each
    // workload build inside it.
    const auto requests = [&](const std::function<trace::Trace(
                                  const SharedTrace &)> &copy) {
        if (cold)
            return coldRequests(opt.small, opt.jobs);
        std::vector<harness::Workload> ws;
        for (const auto &t : paperTraces)
            ws.push_back({t->name(), [t, copy] { return copy(t); }, {}});
        auto reqs = warmRequests(ws, library, opt.jobs, nullptr);
        if (sacd) {
            reqs[0].request.configs = presetConfigs(core::presets().names());
            reqs[0].request.metric = harness::amatMetric();
            reqs[0].name = "amat";
            reqs[1].request.configs = presetConfigs({"standard", "2way"});
            reqs[1].name = "stack";
        }
        return reqs;
    };
    const auto plainCopy = [](const SharedTrace &t) { return *t; };
    double untraced = 0.0;
    {
        harness::Runner runner;
        for (const auto &nr : requests(plainCopy)) {
            const auto t0 = Clock::now();
            runner.run(nr.request);
            untraced += since(t0);
        }
    }
    std::atomic<int> current{root};
    const auto spannedCopy = [&](const SharedTrace &t) {
        const int id = spans.begin("workloads.copy", current.load());
        trace::Trace copy = *t;
        spans.end(id);
        return copy;
    };
    auto reqs = requests(spannedCopy);
    if (cold) {
        // Cold requests generate inside Runner::run: span each build.
        for (auto &nr : reqs) {
            for (auto &w : nr.request.workloads) {
                const auto build = w.build;
                w.build = [&spans, &current, build] {
                    const int id =
                        spans.begin("harness.generate", current.load());
                    trace::Trace t = build();
                    spans.end(id);
                    return t;
                };
            }
        }
    }
    harness::Runner runner;
    double runSeconds = 0.0;
    double selfSeconds = 0.0;
    double busy = 0.0;
    double useful = 0.0;
    double capacity = 0.0;
    std::set<std::pair<std::string, std::string>> executed;
    std::size_t stackable = 0;
    std::size_t stackServed = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const int id = spans.begin("harness.run", root, i + 1);
        current = id;
        const harness::SweepResult result = runner.run(reqs[i].request);
        runSeconds += spans.end(id);
        current = root;
        const auto &timing = result.timing;
        selfSeconds += spans.selfSeconds(id);
        busy += timing.busySeconds;
        capacity += timing.jobs * timing.wallSeconds;
        if (timing.wallSeconds > 0.0) {
            // Work that needed a worker: fresh exact cells (their
            // replay time from step 2), the stack passes, and the
            // builds spanned inside this run. Busy time beyond it was
            // spent blocked, on the trace latch.
            for (const auto &c : result.cells) {
                if (c.engine == harness::EngineTag::StackSinglePass) {
                    useful += timing.busySeconds;
                    break;
                }
                if (executed.emplace(c.workload, c.cacheKey).second) {
                    const auto it =
                        cellSeconds.find({c.workload, c.cacheKey});
                    useful += it == cellSeconds.end() ? 0.0 : it->second;
                }
            }
            useful += childSeconds(spans, id);
        }
        if (harness::stackDerivableMetric(reqs[i].request.metric) &&
            reqs[i].request.engine == harness::EngineSelect::Auto) {
            stackable += result.cells.size();
            for (const auto &c : result.cells)
                stackServed +=
                    c.engine == harness::EngineTag::StackSinglePass;
        }
        if (!sacd) {
            checkTable(result.table, reqs[i].request,
                       tableKey(opt.workload, reqs[i].name, opt.small),
                       golden, report);
        }
        ++report.attempted;
    }
    report.add("sim.stack_traversals",
               static_cast<double>(
                   runner.stackCounter("stack.pass.traversals")),
               "count");
    report.add("sim.stack_served_frac",
               rate(static_cast<double>(stackServed),
                    static_cast<double>(stackable)),
               "ratio");
    report.add("harness.run_s", runSeconds, "s");
    report.add("harness.self_s", selfSeconds, "s");
    report.add("harness.utilization", rate(busy, capacity), "ratio");
    report.add("harness.useful_utilization", rate(useful, capacity),
               "ratio");
    report.add("harness.traces_generated",
               static_cast<double>(runner.tracesGenerated()), "count");
    report.add("harness.runs_executed",
               static_cast<double>(runner.runsExecuted()), "count");

    // 6. telemetry: render every cell's manifest and check its digest.
    const sim::SamplingOptions geometry = samplingGeometry();
    std::uint64_t manifestBytes = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        harness::ManifestCell mc;
        mc.workload = c.workload;
        mc.config = &c.config;
        if (c.engine == harness::EngineTag::SampledLivepoint) {
            mc.report = &c.report;
            mc.sampling = &geometry;
        } else {
            mc.stats = &c.stats;
            mc.stackFamilySize = c.familySize;
        }
        const int id = spans.begin("telemetry.render", root, i + 1);
        const util::Json doc =
            telemetry::manifestJson(harness::renderCellManifest(mc, c.engine));
        const std::string text = doc.dump(2);
        spans.end(id);
        manifestBytes += text.size() + 1;
        std::string key;
        std::string digest;
        ++report.attempted;
        if (!manifestDigest(doc, &key, &digest))
            report.fail("rendered manifest lacks its members");
        else
            golden.check(key, digest, report);
    }
    const double renders = static_cast<double>(cells.size());
    report.add("telemetry.render_s",
               rate(spans.total("telemetry.render"), renders), "s");
    report.add("telemetry.manifest_bytes",
               rate(static_cast<double>(manifestBytes), renders), "bytes");

    // 7. service: one client submitting the seeded sacd list head.
    service::ServerOptions so;
    so.socketPath = opt.outDir + "/traced.sock";
    so.workers = 2;
    so.maxQueue = 8;
    service::SweepServer server(so);
    double accepted = 0.0;
    double exec = 0.0;
    double stream = 0.0;
    std::size_t frames = 0;
    std::size_t frameBytes = 0;
    std::size_t rejected = 0;
    std::size_t served = 0;
    if (!server.start()) {
        report.fail("sacd did not start");
    } else {
        server.runner().warmup(paperWorkloads(opt.small));
        for (std::size_t i = 0; i < (opt.small ? 10u : 30u); ++i) {
            const SacdRequest req =
                sacdRequest(opt.seed, i, opt.small, library);
            const SacdReply r = sacdSubmit(so.socketPath, req);
            ++report.attempted;
            frames += r.frames;
            frameBytes += r.bytes;
            rejected += r.rejected;
            if (!r.ok) {
                report.fail("sacd " + req.kind + ": " + r.error);
                continue;
            }
            ++served;
            const int id =
                spans.add("service.request", r.submit, r.done, root, i + 1);
            spans.add("service.accepted", r.submit, r.accepted, id, i + 1);
            spans.add("service.exec", r.accepted, r.firstManifest, id,
                      i + 1);
            spans.add("service.stream", r.firstManifest, r.done, id, i + 1);
            accepted += seconds(r.submit, r.accepted);
            exec += seconds(r.accepted, r.firstManifest);
            stream += seconds(r.firstManifest, r.done);
        }
        server.drain();
    }
    const double n = static_cast<double>(served);
    report.add("service.accepted_ms", 1e3 * rate(accepted, n), "ms");
    report.add("service.exec_ms", 1e3 * rate(exec, n), "ms");
    report.add("service.stream_ms", 1e3 * rate(stream, n), "ms");
    report.add("service.frames", static_cast<double>(frames), "count");
    report.add("service.bytes", static_cast<double>(frameBytes), "bytes");
    report.add("service.rejected", static_cast<double>(rejected), "count");
    fs::remove_all(library);

    report.add("trace.overhead_frac",
               untraced > 0.0 ? runSeconds / untraced - 1.0 : 0.0, "ratio");
    spans.end(root);
    const std::string path =
        opt.outDir + "/spans-" + opt.workload + ".json";
    if (!spans.writeChromeTrace(path))
        report.fail("cannot write " + path);
    std::ostringstream os;
    os << "spans: " << spans.snapshot().size() << " written to " << path
       << "; trace.overhead_frac compares " << reqs.size()
       << " Runner::run requests traced (" << runSeconds
       << " s) and untraced (" << untraced << " s)";
    report.note(os.str());
    return true;
}

} // namespace sacbench
