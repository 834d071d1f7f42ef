#include "src/harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <fstream>
#include <sstream>

#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/util/logging.hh"
#include "src/util/thread_pool.hh"

namespace sac {
namespace harness {

const char *
engineSelectName(EngineSelect engine)
{
    switch (engine) {
    case EngineSelect::Auto:
        return "auto";
    case EngineSelect::Exact:
        return "exact";
    case EngineSelect::Sampled:
        return "sampled";
    case EngineSelect::SampledLivepoint:
        return "sampled-livepoint";
    case EngineSelect::Stack:
        return "stack";
    }
    return "auto";
}

std::optional<EngineSelect>
engineSelectFromName(const std::string &name)
{
    for (const EngineSelect e :
         {EngineSelect::Auto, EngineSelect::Exact, EngineSelect::Sampled,
          EngineSelect::SampledLivepoint, EngineSelect::Stack}) {
        if (name == engineSelectName(e))
            return e;
    }
    return std::nullopt;
}

const char *
engineName(EngineTag tag)
{
    switch (tag) {
    case EngineTag::ExactReplay:
        return "exact-replay";
    case EngineTag::Sampled:
        return "sampled";
    case EngineTag::SampledLivepoint:
        return "sampled-livepoint";
    case EngineTag::StackSinglePass:
        return "stack-single-pass";
    }
    return "exact-replay";
}

namespace {

/** Shared head of every cell manifest: identity, config, counters. */
telemetry::Manifest
manifestHead(const ManifestCell &cell, EngineTag tag,
             const sim::RunStats &counted)
{
    telemetry::Manifest m;
    m.workload = cell.workload;
    m.configName = cell.config->name;
    m.cacheKey = cell.config->cacheKey();
    m.engine = engineName(tag);
    m.config = cell.config->toJson();

    telemetry::CounterRegistry reg;
    counted.registerInto(reg);
    m.counters = reg.toJson();
    return m;
}

/**
 * Render @p cell, running the instrumented re-replay when requested
 * (exact cells with a trace); @p recorder receives the interval
 * recorder so writeCellManifest() can emit the sidecar series.
 */
telemetry::Manifest
renderCell(const ManifestCell &cell, EngineTag tag,
           std::optional<telemetry::IntervalRecorder> &recorder)
{
    SAC_ASSERT(cell.config != nullptr,
               "ManifestCell without a configuration");

    if (tag == EngineTag::Sampled || tag == EngineTag::SampledLivepoint) {
        SAC_ASSERT(cell.report != nullptr && cell.sampling != nullptr,
                   "sampled ManifestCell needs report + sampling");
        const sim::SampleReport &report = *cell.report;
        const sim::SamplingOptions &opt = *cell.sampling;
        telemetry::Manifest m = manifestHead(cell, tag, report.detailed);

        const auto interval = [&report](double estimate,
                                        const sim::SampleStats &s) {
            util::Json j = util::Json::object();
            j.set("estimate", estimate);
            j.set("half_width", report.halfWidthOf(s));
            j.set("windows", s.count());
            return j;
        };

        util::Json sampling = util::Json::object();
        sampling.set("window", opt.window);
        sampling.set("stride", opt.stride);
        sampling.set("warmup", opt.warmup);
        sampling.set("confidence", report.confidence);
        sampling.set("windows", report.windows);
        sampling.set("records_total", report.recordsTotal);
        sampling.set("records_detailed", report.recordsDetailed);
        sampling.set("records_warmed", report.recordsWarmed);
        sampling.set("records_skipped", report.recordsSkipped);
        sampling.set("exact", report.exact);
        sampling.set("miss_ratio", interval(report.missRatioEstimate(),
                                            report.missRatio));
        sampling.set("amat",
                     interval(report.amatEstimate(), report.amat));
        sampling.set("words_per_access",
                     interval(report.wordsPerAccessEstimate(),
                              report.wordsPerAccess));

        m.metrics = util::Json::object();
        m.metrics.set("amat", report.amatEstimate());
        m.metrics.set("miss_ratio", report.missRatioEstimate());
        m.metrics.set("words_per_access",
                      report.wordsPerAccessEstimate());
        m.metrics.set("sampling", std::move(sampling));
        if (cell.checkpoint)
            m.metrics.set("checkpoint", *cell.checkpoint);

        m.timing = util::Json::object();
        if (cell.simSeconds > 0.0)
            m.timing.set("sim_seconds", cell.simSeconds);
        return m;
    }

    SAC_ASSERT(cell.stats != nullptr,
               "exact/stack ManifestCell needs stats");
    const sim::RunStats &stats = *cell.stats;

    if (tag == EngineTag::StackSinglePass) {
        telemetry::Manifest m = manifestHead(cell, tag, stats);
        // Count-derived metrics only: a stack pass yields no cycles,
        // so amat/total_access_cycles would be bogus zeros.
        m.metrics = util::Json::object();
        m.metrics.set("miss_ratio", stats.missRatio());
        m.metrics.set("hit_ratio", stats.hitRatio());
        m.metrics.set("main_hit_share", stats.mainHitShare());
        m.metrics.set("aux_hit_share", stats.auxHitShare());
        m.metrics.set("words_per_access",
                      stats.wordsFetchedPerAccess());
        util::Json stack = util::Json::object();
        stack.set("family_size",
                  static_cast<std::uint64_t>(cell.stackFamilySize));
        m.metrics.set("stack", std::move(stack));

        m.timing = util::Json::object();
        if (cell.simSeconds > 0.0)
            m.timing.set("pass_seconds", cell.simSeconds);
        return m;
    }

    // Exact replay, optionally with the instrumented re-replay.
    telemetry::Manifest m = manifestHead(cell, tag, stats);
    m.metrics = util::Json::object();
    m.metrics.set("amat", stats.amat());
    m.metrics.set("miss_ratio", stats.missRatio());
    m.metrics.set("hit_ratio", stats.hitRatio());
    m.metrics.set("main_hit_share", stats.mainHitShare());
    m.metrics.set("aux_hit_share", stats.auxHitShare());
    m.metrics.set("words_per_access", stats.wordsFetchedPerAccess());
    m.metrics.set("total_access_cycles", stats.totalAccessCycles);

    m.timing = util::Json::object();
    if (cell.simSeconds > 0.0)
        m.timing.set("sim_seconds", cell.simSeconds);
    if (cell.extraTiming &&
        cell.extraTiming->type() == util::Json::Type::Object)
        m.timing.set("phases", *cell.extraTiming);

    const bool wants = cell.trace != nullptr &&
                       (cell.instrument.intervalRecords > 0 ||
                        cell.instrument.heatmap);
    if (!wants)
        return m;

    // Instrumented re-replay. The hooks observe without perturbing,
    // so the result must reproduce the recorded run bit-for-bit.
    core::SoftwareAssistedCache sim(*cell.config);
    std::optional<telemetry::SetProfiler> profiler;
    if (cell.instrument.intervalRecords > 0) {
        recorder.emplace(cell.instrument.intervalRecords);
        sim.attachIntervalRecorder(&*recorder);
    }
    if (cell.instrument.heatmap) {
        profiler.emplace(sim.mainArray().numSets());
        sim.attachSetProfiler(&*profiler);
    }
    sim.run(*cell.trace);
    SAC_ASSERT(sim.stats() == stats,
               "instrumented replay diverged from the recorded run");
    if (profiler)
        m.profile = profiler->toJson();
    return m;
}

} // namespace

telemetry::Manifest
renderCellManifest(const ManifestCell &cell, EngineTag tag)
{
    std::optional<telemetry::IntervalRecorder> recorder;
    return renderCell(cell, tag, recorder);
}

std::string
writeCellManifest(const std::string &dir, const ManifestCell &cell,
                  EngineTag tag)
{
    std::optional<telemetry::IntervalRecorder> recorder;
    const telemetry::Manifest m = renderCell(cell, tag, recorder);
    const std::string path = telemetry::writeManifestFile(dir, m);
    if (path.empty() || !recorder)
        return path;

    // The interval series rides next to the manifest:
    // <workload>_<hash>.json -> <workload>_<hash>.intervals.jsonl.
    std::string jsonl = path;
    const std::string suffix = ".json";
    jsonl.replace(jsonl.size() - suffix.size(), suffix.size(),
                  ".intervals.jsonl");
    if (!recorder->writeJsonl(jsonl, cell.workload, cell.config->name,
                              cell.config->cacheKey()))
        return "";
    return path;
}

std::optional<std::string>
SweepRequest::validationError() const
{
    if (workloads.empty())
        return std::string("request has no workloads");
    if (configs.empty())
        return std::string("request has no configurations");
    if (!metric.extract)
        return std::string("request has no metric");
    const bool sampled = engine == EngineSelect::Sampled ||
                         engine == EngineSelect::SampledLivepoint;
    if (engine == EngineSelect::SampledLivepoint &&
        checkpointDir.empty()) {
        return std::string(
            "engine sampled-livepoint requires a checkpoint directory");
    }
    if (engine == EngineSelect::Sampled && !checkpointDir.empty()) {
        return std::string("engine sampled ignores the checkpoint "
                           "directory; use sampled-livepoint");
    }
    if (!checkpointDir.empty() && !sampled) {
        return std::string(
            "a checkpoint directory requires a sampled engine");
    }
    if (checkpointRebuild && checkpointDir.empty()) {
        return std::string(
            "checkpoint rebuild requires a checkpoint directory");
    }
    if ((telemetry.intervalRecords > 0 || telemetry.heatmap) &&
        sampled) {
        return std::string("interval/heatmap instrumentation replays "
                           "exactly and cannot combine with a sampled "
                           "engine");
    }
    if (engine == EngineSelect::Stack &&
        !stackDerivableMetric(metric)) {
        return "metric '" + metric.name +
               "' is not stack-derivable; use engine auto or exact";
    }
    if (sampled) {
        if (const auto err = sampling.validationError())
            return "sampling: " + *err;
    }
    return std::nullopt;
}

SweepRequest
SweepRequest::fromBenchOptions(const BenchOptions &options,
                               std::vector<Workload> workloads,
                               std::vector<core::Config> configs,
                               Metric metric)
{
    SweepRequest req;
    req.workloads = std::move(workloads);
    req.configs = std::move(configs);
    req.metric = std::move(metric);
    req.jobs = options.jobs;
    if (options.sample) {
        req.engine = options.checkpointDir.empty()
                         ? EngineSelect::Sampled
                         : EngineSelect::SampledLivepoint;
    }
    req.sampling = options.sampling;
    req.checkpointDir = options.checkpointDir;
    req.checkpointRebuild = options.checkpointRebuild;
    req.telemetry.manifestDir = options.emitJsonDir;
    req.telemetry.intervalRecords = options.interval;
    req.telemetry.heatmap = options.heatmap;
    req.telemetry.suiteTotals = true;
    return req;
}

namespace {

/** Serialize the manifest document exactly as writeManifestFile(). */
std::string
manifestDocument(const telemetry::Manifest &m)
{
    std::ostringstream os;
    telemetry::manifestJson(m).write(os, 2);
    os << '\n';
    return os.str();
}

/** Per-run emission state shared by the engine-specific paths. */
struct Emitter
{
    const SweepTelemetry &telemetry;
    SweepResult &result;

    bool
    active() const
    {
        return !telemetry.manifestDir.empty() ||
               static_cast<bool>(telemetry.sink);
    }

    /** Claim (workload, cacheKey) in the dedup set (true = emit). */
    bool
    claim(const std::string &workload, const std::string &cache_key)
    {
        return !telemetry.dedup ||
               telemetry.dedup->emplace(workload, cache_key).second;
    }

    /**
     * Emit one cell: write under manifestDir and/or stream through
     * the sink. @p record (when given) receives the file/path.
     */
    void
    emit(const ManifestCell &cell, EngineTag tag,
         SweepResult::Cell *record)
    {
        const std::string file = telemetry::manifestFileName(
            cell.workload, cell.config->cacheKey());
        std::string path;
        if (telemetry.sink) {
            // Render once, stream the exact bytes a file would hold,
            // then materialize those same bytes when a directory was
            // also requested. (The interval sidecar is CLI-only and
            // never combines with a sink.)
            const telemetry::Manifest m =
                renderCellManifest(cell, tag);
            const std::string doc = manifestDocument(m);
            telemetry.sink(file, doc);
            if (!telemetry.manifestDir.empty()) {
                std::error_code ec;
                std::filesystem::create_directories(
                    telemetry.manifestDir, ec);
                const std::filesystem::path p =
                    std::filesystem::path(telemetry.manifestDir) /
                    file;
                std::ofstream os(p);
                os << doc;
                path = os ? p.string() : std::string();
            } else {
                path = file; // streamed only; count as written
            }
        } else if (!telemetry.manifestDir.empty()) {
            path = writeCellManifest(telemetry.manifestDir, cell, tag);
        }
        if (path.empty())
            ++result.manifestFailures;
        else
            ++result.manifestsWritten;
        if (record) {
            record->manifestFile = file;
            if (path != file)
                record->manifestPath = path;
        }
    }
};

} // namespace

/**
 * The routing of one request: every cell's engine and store slot,
 * workload-major like SweepResult::cells, plus what the executor
 * needs to run them.
 */
struct Runner::Plan
{
    struct Cell
    {
        EngineTag engine = EngineTag::ExactReplay;
        StoredCell *slot = nullptr;
    };
    std::vector<Cell> cells;
    /**
     * Indices (into the request's configs) of the stack family: the
     * configs one single-pass traversal per workload serves. Empty
     * when no pass runs (a family of one gains nothing over a replay).
     */
    std::vector<std::size_t> family;
    /** Live-point library root of sampled cells ("" = plain). */
    std::string libraryDir;
    /** Unstored slots of --checkpoint-rebuild cells. */
    std::vector<std::unique_ptr<StoredCell>> rebuilt;
};

namespace {

/** Store key of one cell: engine, identity, and for sampled cells the
 *  full sampling geometry plus the library they restore from. */
std::string
storeKey(EngineTag tag, const std::string &workload,
         const std::string &cache_key, const SweepRequest &request,
         const std::string &library_dir)
{
    std::ostringstream os;
    os << engineName(tag) << '\x1f' << workload << '\x1f' << cache_key;
    if (tag == EngineTag::Sampled || tag == EngineTag::SampledLivepoint) {
        const sim::SamplingOptions &opt = request.sampling;
        os << '\x1f' << opt.window << ',' << opt.stride << ','
           << opt.warmup << ',' << opt.confidence << ','
           << opt.targetRelativeError << ',' << opt.minWindows << ','
           << opt.maxWindows << '\x1f' << library_dir;
    }
    return os.str();
}

/** The report's sampled series matching @p metric, if any. */
const sim::SampleStats *
sampleSeriesOf(const Metric &metric, const sim::SampleReport &rep)
{
    if (metric.name == "miss ratio")
        return &rep.missRatio;
    if (metric.name == "AMAT")
        return &rep.amat;
    if (metric.name == "words/ref")
        return &rep.wordsPerAccess;
    return nullptr;
}

/** Point estimate matching @p series (one of the report's three). */
double
sampleEstimateOf(const sim::SampleStats *series,
                 const sim::SampleReport &rep)
{
    if (series == &rep.missRatio)
        return rep.missRatioEstimate();
    if (series == &rep.amat)
        return rep.amatEstimate();
    return rep.wordsPerAccessEstimate();
}

/** Nanoseconds elapsed since @p t0. */
std::uint64_t
nanosSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

Runner::Plan
Runner::plan(const SweepRequest &request)
{
    Plan p;
    const std::size_t n_w = request.workloads.size();
    const std::size_t n_c = request.configs.size();
    const std::size_t n_cells = n_w * n_c;

    // The one routing decision. Sampled engines are explicit; a
    // live-point request whose geometry leaves no warming gap has
    // nothing a library could save and runs as plain sampling.
    // Otherwise a stack-derivable metric sends the stack-eligible
    // configs (at least two) to one traversal per workload, and every
    // other cell to exact replay.
    std::vector<EngineTag> tags(n_c, EngineTag::ExactReplay);
    if (request.engine == EngineSelect::Sampled ||
        request.engine == EngineSelect::SampledLivepoint) {
        const bool library =
            request.engine == EngineSelect::SampledLivepoint &&
            sim::SampledEngine(request.sampling).checkpointable();
        if (library)
            p.libraryDir = request.checkpointDir;
        tags.assign(n_c, library ? EngineTag::SampledLivepoint
                                 : EngineTag::Sampled);
    } else if (request.engine != EngineSelect::Exact &&
               stackDerivableMetric(request.metric)) {
        for (std::size_t ci = 0; ci < n_c; ++ci) {
            if (stackFamilyEligible(request.configs[ci]))
                p.family.push_back(ci);
        }
        if (p.family.size() < 2) {
            p.family.clear();
        } else {
            for (const std::size_t ci : p.family)
                tags[ci] = EngineTag::StackSinglePass;
        }
    }

    p.cells.resize(n_cells);
    for (std::size_t wi = 0; wi < n_w; ++wi) {
        for (std::size_t ci = 0; ci < n_c; ++ci) {
            Plan::Cell &c = p.cells[wi * n_c + ci];
            c.engine = tags[ci];
            // --checkpoint-rebuild must warm-and-rewrite, so its cells
            // bypass the store (and never poison it with their fresh
            // result: a later plain run still latches its own).
            if (request.checkpointRebuild && !p.libraryDir.empty()) {
                p.rebuilt.push_back(std::make_unique<StoredCell>());
                c.slot = p.rebuilt.back().get();
            } else {
                c.slot = &slot(storeKey(
                    c.engine, request.workloads[wi].name,
                    request.configs[ci].cacheKey(), request,
                    p.libraryDir));
            }
        }
    }
    return p;
}

SweepResult
Runner::run(const SweepRequest &request)
{
    if (const auto err = request.validationError())
        SAC_ASSERT(false, "invalid SweepRequest: ", *err);

    const Plan p = plan(request);
    const std::size_t n_w = request.workloads.size();
    const std::size_t n_c = request.configs.size();

    // ---- Execute. ----------------------------------------------------
    const auto start = std::chrono::steady_clock::now();
    // Summed wall time of the tasks (nanoseconds so workers can
    // accumulate without a double CAS).
    std::atomic<std::uint64_t> busy_ns{0};

    const bool sampled = request.engine == EngineSelect::Sampled ||
                         request.engine == EngineSelect::SampledLivepoint;
    if (!p.family.empty() && p.family.size() < n_c)
        count("stack.pass.fallback_cells",
              "cells exact-replayed in stack-dispatched sweeps",
              n_w * (n_c - p.family.size()));

    // A workload's exact and stack cells are served by traversals of
    // its trace. Where the records come from is settled here, on the
    // issuing thread: the resident trace, else the workload's stream
    // on the task's own thread, else a trace materialized right now —
    // so no trace copy lands in a pool worker's malloc arena.
    std::vector<const trace::Trace *> resident(n_w, nullptr);
    // Library identity is the trace *content*, not its name: hash
    // before the cells fan out, once per resident trace.
    std::vector<std::uint64_t> trace_hashes(n_w, 0);
    for (std::size_t wi = 0; wi < n_w; ++wi) {
        const Workload &w = request.workloads[wi];
        if (!p.libraryDir.empty())
            trace_hashes[wi] = traceHashOf(w);
        if (sampled)
            continue;
        resident[wi] = residentTrace(w);
        const auto row = p.cells.begin() + wi * n_c;
        if (!resident[wi] && !w.stream &&
            std::any_of(row, row + n_c, [](const Plan::Cell &c) {
                return c.slot->state.load() != StoredCell::Filled;
            }))
            resident[wi] = &traceOf(w);
    }

    // Tasks: one per sampled cell, else traversals of one workload.
    // A resident trace costs nothing to re-read, so each of its exact
    // cells is a traversal of its own (the finest balance). A
    // streamed trace is regenerated by every traversal, so its exact
    // cells share one, split only so that a request with fewer
    // workloads than workers still fills the pool. The stack cells
    // ride a workload's first traversal. The largest resident traces
    // go first, so the longest tasks start earliest.
    const unsigned jobs = std::max(1u, request.jobs);
    const std::size_t n_exact = std::max<std::size_t>(
        1, n_c - p.family.size());
    std::vector<std::size_t> shards(n_w);
    struct Task
    {
        std::size_t index; //!< the sampled cell, or the workload
        std::size_t shard; //!< traversal of the workload
        std::size_t size;  //!< resident trace records (0 = unknown)
    };
    std::vector<Task> tasks;
    for (std::size_t k = 0; sampled && k < p.cells.size(); ++k)
        tasks.push_back({k, 0, 0});
    for (std::size_t wi = 0; !sampled && wi < n_w; ++wi) {
        shards[wi] = std::clamp<std::size_t>(
            resident[wi] ? n_exact : jobs / n_w, 1, n_exact);
        for (std::size_t s = 0; s < shards[wi]; ++s)
            tasks.push_back(
                {wi, s, resident[wi] ? resident[wi]->size() : 0});
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task &a, const Task &b) {
                         return a.size > b.size;
                     });

    const auto traverseShard = [&](std::size_t wi, std::size_t shard) {
        std::vector<TraversalCell> cells;
        std::vector<StoredCell *> slots;
        std::size_t exact = 0;
        for (std::size_t ci = 0; ci < n_c; ++ci) {
            const Plan::Cell &c = p.cells[wi * n_c + ci];
            const bool stack = c.engine == EngineTag::StackSinglePass;
            if (stack ? shard != 0 : exact++ % shards[wi] != shard)
                continue;
            cells.push_back({&request.configs[ci], c.slot, stack});
            slots.push_back(c.slot);
        }
        std::size_t fresh_stack = 0;
        settle(slots, [&](const std::vector<std::size_t> &claimed) {
            std::vector<const TraversalCell *> mine;
            for (const std::size_t i : claimed)
                mine.push_back(&cells[i]);
            traverse(request.workloads[wi], resident[wi], mine);
            for (const TraversalCell *c : mine)
                fresh_stack += c->stack;
        });
        if (!p.family.empty() && shard == 0)
            count("stack.pass.cached_cells",
                  "sweep cells served from the stack store",
                  p.family.size() - fresh_stack);
    };
    const auto execute = [&](const Task &task) {
        const auto t0 = std::chrono::steady_clock::now();
        if (sampled) {
            const std::size_t wi = task.index / n_c;
            StoredCell &cell = *p.cells[task.index].slot;
            settle({&cell}, [&](const std::vector<std::size_t> &) {
                sampleCell(cell, request.workloads[wi],
                           request.configs[task.index % n_c], request,
                           p.libraryDir, trace_hashes[wi]);
            });
        } else {
            traverseShard(task.index, task.shard);
        }
        busy_ns.fetch_add(nanosSince(t0));
    };

    if (jobs > 1 && tasks.size() > 1) {
        // Declared after the lambdas its tasks reference: unwinding
        // joins the workers before those go out of scope.
        util::ThreadPool pool(jobs);
        std::vector<std::future<void>> futures;
        futures.reserve(tasks.size());
        for (const Task &task : tasks)
            futures.push_back(
                pool.submit([&execute, task] { execute(task); }));
        // Every task must finish before get() re-raises an exception
        // one threw: the tasks reference this frame.
        for (auto &f : futures)
            f.wait();
        for (auto &f : futures)
            f.get();
    } else {
        for (const Task &task : tasks)
            execute(task);
    }

    SweepResult out;
    out.timing.wallSeconds =
        static_cast<double>(nanosSince(start)) * 1e-9;
    out.timing.busySeconds = static_cast<double>(busy_ns.load()) * 1e-9;
    out.timing.jobs = jobs;
    phases_.add("sweep", out.timing.wallSeconds);

    // ---- Render, serially from the plan: ordering, rounding and
    // therefore bytes are independent of the job count (stack-served
    // cells extract the same integer counts replay would produce). --
    const telemetry::ScopedPhase render(phases_, "report");
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : request.configs)
        headers.push_back(cfg.name);
    out.table = util::Table(std::move(headers));
    out.cells.resize(p.cells.size());
    for (std::size_t wi = 0; wi < n_w; ++wi) {
        const auto row = out.table.addRow();
        out.table.set(row, 0, request.workloads[wi].name);
        for (std::size_t ci = 0; ci < n_c; ++ci) {
            const Plan::Cell &c = p.cells[wi * n_c + ci];
            SweepResult::Cell &r = out.cells[wi * n_c + ci];
            r.workload = request.workloads[wi].name;
            r.configName = request.configs[ci].name;
            r.cacheKey = request.configs[ci].cacheKey();
            r.engine = c.engine;
            const int decimals = request.metric.decimals;
            if (c.engine == EngineTag::Sampled ||
                c.engine == EngineTag::SampledLivepoint) {
                const sim::SampleReport &rep = c.slot->report;
                r.stats = rep.detailed;
                r.report = rep;
                if (const auto *series =
                        sampleSeriesOf(request.metric, rep)) {
                    out.table.set(row, ci + 1,
                                  sim::formatWithCi(
                                      sampleEstimateOf(series, rep),
                                      rep.halfWidthOf(*series),
                                      decimals));
                    continue;
                }
            } else {
                r.stats = c.slot->stats;
            }
            out.table.setNumber(row, ci + 1,
                                request.metric.extract(r.stats),
                                decimals);
        }
    }

    Emitter emitter{request.telemetry, out};
    if (!emitter.active())
        return out;

    const bool instrument = request.telemetry.intervalRecords > 0 ||
                            request.telemetry.heatmap;
    util::Json phases;
    if (request.telemetry.suiteTotals) {
        phases = phases_.toJson();
        phases.set("sweep_jobs",
                   static_cast<std::uint64_t>(out.timing.jobs));
        phases.set("worker_utilization", out.timing.utilization());
    }

    // Config-major, each config closed by its suite total.
    for (std::size_t ci = 0; ci < n_c; ++ci) {
        const core::Config &cfg = request.configs[ci];
        sim::RunStats suite_total;
        double suite_seconds = 0.0;
        bool exact_only = true;
        for (std::size_t wi = 0; wi < n_w; ++wi) {
            const Plan::Cell &c = p.cells[wi * n_c + ci];
            SweepResult::Cell &r = out.cells[wi * n_c + ci];
            exact_only = exact_only && c.engine == EngineTag::ExactReplay;
            if (c.engine == EngineTag::ExactReplay) {
                suite_total += c.slot->stats;
                suite_seconds += c.slot->seconds;
            }
            if (!emitter.claim(r.workload, r.cacheKey))
                continue;
            ManifestCell mc;
            mc.workload = r.workload;
            mc.config = &cfg;
            util::Json ck;
            switch (c.engine) {
            case EngineTag::ExactReplay:
                mc.stats = &c.slot->stats;
                mc.simSeconds = c.slot->seconds;
                if (instrument)
                    mc.trace = &traceOf(request.workloads[wi]);
                mc.instrument = {request.telemetry.intervalRecords,
                                 request.telemetry.heatmap};
                break;
            case EngineTag::StackSinglePass:
                mc.stats = &c.slot->stats;
                mc.stackFamilySize = p.family.size();
                break;
            case EngineTag::Sampled:
            case EngineTag::SampledLivepoint:
                mc.report = &c.slot->report;
                mc.sampling = &request.sampling;
                mc.simSeconds = c.slot->seconds;
                if (c.engine == EngineTag::SampledLivepoint) {
                    // The cell's own library outcome, so a reader can
                    // tell an instant re-sweep from a cold warm.
                    const auto &o = c.slot->checkpoint;
                    ck = util::Json::object();
                    ck.set("hits", o.hits);
                    ck.set("misses", o.misses);
                    ck.set("stale", o.stale);
                    ck.set("bytes", o.bytes);
                    mc.checkpoint = &ck;
                }
                break;
            }
            emitter.emit(mc, c.engine, &r);
        }
        if (request.telemetry.suiteTotals && exact_only &&
            emitter.claim("suite-total", cfg.cacheKey())) {
            ManifestCell mc;
            mc.workload = "suite-total";
            mc.config = &cfg;
            mc.stats = &suite_total;
            mc.simSeconds = suite_seconds;
            mc.extraTiming = &phases;
            emitter.emit(mc, EngineTag::ExactReplay, nullptr);
        }
    }
    return out;
}

} // namespace harness
} // namespace sac
