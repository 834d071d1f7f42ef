#include "src/harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <optional>
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
 * (exact cells with records); @p recorder receives the interval
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

    const bool wants = (cell.trace || cell.stream) &&
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
    if (cell.trace)
        sim.replay(cell.trace->data(), cell.trace->size());
    else
        trace::streamChunks(*cell.stream, [&sim](const trace::Record *recs,
                                                 std::size_t n) {
            sim.replay(recs, n);
        });
    sim.finish();
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

/**
 * One request's manifest emission. Every cell has one document path:
 * the same bytes go to the sink, to manifestDir, or to both. A stored
 * cell's document is rendered by its first emission and latched on
 * its slot (StoredCell::manifest); later emissions reuse it while the
 * inputs beyond the store key match, and re-render otherwise. Suite
 * totals and instrumented cells are never latched, and an
 * instrumented cell written without a sink re-replays through
 * writeCellManifest(), whose interval series rides next to the
 * manifest. (The series is CLI-only and never combines with a sink.)
 */
struct Runner::Emitter
{
    Emitter(const SweepTelemetry &t, SweepResult &r)
        : telemetry(t), result(r)
    {
    }

    const SweepTelemetry &telemetry;
    SweepResult &result;
    std::uint64_t renders = 0, reuses = 0, bytes = 0;
    std::string rendered; //!< the last document no slot holds

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
     * The document of @p cell: @p slot's latched one when it was
     * rendered from the same inputs, else a fresh render, latched on
     * @p slot when that holds none yet (nullptr = never latch).
     */
    const std::string &
    document(const ManifestCell &cell, EngineTag tag, StoredCell *slot)
    {
        using Rendered = StoredCell::Rendered;
        const Rendered *latched = slot ? slot->manifest.load() : nullptr;
        if (latched && latched->configName == cell.config->name &&
            latched->stackFamilySize == cell.stackFamilySize) {
            ++reuses;
            return latched->document;
        }
        ++renders;
        rendered = telemetry::manifestDocument(
            renderCellManifest(cell, tag));
        if (!slot || latched)
            return rendered;
        // Rendered outside any lock; a concurrent emission of the same
        // slot renders the same bytes, so the first to install wins.
        auto mine = std::make_unique<Rendered>(
            Rendered{cell.config->name, cell.stackFamilySize,
                     std::move(rendered)});
        if (!slot->manifest.compare_exchange_strong(latched, mine.get())) {
            rendered = std::move(mine->document);
            return rendered;
        }
        bytes += mine->document.size();
        return mine.release()->document;
    }

    /**
     * Emit one cell (its store slot @p slot, nullptr when it has none
     * to latch on): write under manifestDir and/or stream through the
     * sink. @p record (when given) receives the file/path.
     */
    void
    emit(const ManifestCell &cell, EngineTag tag,
         const std::string &cache_key, StoredCell *slot,
         SweepResult::Cell *record)
    {
        const std::string file =
            telemetry::manifestFileName(cell.workload, cache_key);
        const bool instrumented = cell.trace || cell.stream;
        std::string path;
        if (instrumented && !telemetry.sink) {
            ++renders;
            path = writeCellManifest(telemetry.manifestDir, cell, tag);
        } else {
            const std::string &doc =
                document(cell, tag, instrumented ? nullptr : slot);
            if (telemetry.sink)
                telemetry.sink(file, doc);
            path = telemetry.manifestDir.empty()
                       ? file // streamed only; count as written
                       : telemetry::writeManifestDocument(
                             telemetry.manifestDir, file, doc);
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
     * configs single-pass traversals serve, one per workload and
     * line size. Empty when no pass runs (a family of one gains
     * nothing over a replay).
     */
    std::vector<std::size_t> family;
    /** Live-point library root of sampled cells ("" = plain). */
    std::string libraryDir;
    /** The configs' Config::cacheKey(), built once per request. */
    std::vector<std::string> cacheKeys;
    /** Unstored slots of --checkpoint-rebuild cells. */
    std::vector<std::unique_ptr<StoredCell>> rebuilt;
};

namespace {

/** The store key suffix of a sampled cell: the full sampling
 *  geometry plus the library it restores from. */
std::string
samplingKey(const SweepRequest &request, const std::string &library_dir)
{
    const sim::SamplingOptions &opt = request.sampling;
    std::ostringstream os;
    os << '\x1f' << opt.window << ',' << opt.stride << ',' << opt.warmup
       << ',' << opt.confidence << ',' << opt.targetRelativeError << ','
       << opt.minWindows << ',' << opt.maxWindows << '\x1f'
       << library_dir;
    return os.str();
}

/** Store key of one cell: engine, identity, and for sampled cells
 *  @p sampling_key (samplingKey()). */
std::string
storeKey(EngineTag tag, const std::string &workload,
         const std::string &cache_key, const std::string &sampling_key)
{
    std::string key = engineName(tag);
    key += '\x1f';
    key += workload;
    key += '\x1f';
    key += cache_key;
    if (tag == EngineTag::Sampled || tag == EngineTag::SampledLivepoint)
        key += sampling_key;
    return key;
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
    // configs (at least two) to stack passes, and every other cell
    // to exact replay.
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

    for (const core::Config &cfg : request.configs)
        p.cacheKeys.push_back(cfg.cacheKey());
    const std::string sampling_key = samplingKey(request, p.libraryDir);
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
                c.slot = &slot(storeKey(c.engine,
                                        request.workloads[wi].name,
                                        p.cacheKeys[ci], sampling_key));
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

    // Where each workload's records come from is settled here, on the
    // issuing thread: the resident trace, else (for a traversal) the
    // workload's stream on the task's own thread, else a trace
    // materialized right now — so no trace copy lands in a pool
    // worker's malloc arena. A plain sampled cell, which restores no
    // library, still materializes its trace on first use in its task.
    std::vector<const trace::Trace *> resident(n_w, nullptr);
    std::vector<bool> pending(n_w); // a cell of the workload is unfilled
    for (std::size_t wi = 0; wi < n_w; ++wi) {
        const Workload &w = request.workloads[wi];
        const auto row = p.cells.begin() + wi * n_c;
        pending[wi] = std::any_of(row, row + n_c, [](const Plan::Cell &c) {
            return c.slot->state.load() != StoredCell::Filled;
        });
        resident[wi] = residentTrace(w);
        if (!resident[wi] && pending[wi] &&
            (sampled ? !p.libraryDir.empty() : !w.stream))
            resident[wi] = &traceOf(w);
    }

    // A workload's exact and stack cells are split into units: one
    // per line group of the stack family (smallest line, the heaviest
    // group, first), then one per exact cell. The groups share no
    // state, so splitting them costs no redundant work.
    std::vector<std::vector<std::size_t>> units;
    if (!sampled) {
        std::map<std::uint32_t, std::vector<std::size_t>> groups;
        for (const std::size_t ci : p.family)
            groups[request.configs[ci].lineBytes].push_back(ci);
        for (auto &[line, group] : groups)
            units.push_back(std::move(group));
        for (std::size_t ci = 0; ci < n_c; ++ci) {
            if (p.cells[ci].engine != EngineTag::StackSinglePass)
                units.push_back({ci});
        }
    }

    // Tasks: one per sampled cell, else traversals of one workload.
    // A resident trace costs nothing to re-read, so each unit is a
    // traversal of its own (the finest balance). A streamed trace is
    // regenerated by every traversal, so its units are dealt
    // round-robin over one traversal, or jobs / workloads when a
    // request has fewer workloads than workers. The largest traces
    // (resident, or streamed with a known length) go first, so the
    // longest tasks start earliest.
    const unsigned jobs = std::max(1u, request.jobs);
    std::vector<std::size_t> shards(n_w);
    struct Task
    {
        std::size_t index; //!< the sampled cell, or the workload
        std::size_t shard; //!< traversal of the workload
        std::size_t size;  //!< trace records (0 = unknown)
        /** When the cell's trace hash is expected: the records its
         *  worker has hashed by then, in a greedy schedule of the hash
         *  tasks on jobs workers (0 = no hash pending). */
        std::size_t hashedBy = 0;
        bool hash = false; //!< hash workload index's trace
    };
    std::vector<Task> tasks;
    // A live-point cell needs its trace's hash only once it has
    // replayed (sampleCell). So the traces not hashed yet are hashed
    // by tasks of their own ahead of the cells, largest first, and
    // the cells wait in the order their hashes are expected to finish.
    std::vector<std::size_t> hashed_by(n_w, 0);
    if (!p.libraryDir.empty()) {
        std::vector<std::size_t> hashes;
        for (std::size_t wi = 0; wi < n_w; ++wi) {
            if (pending[wi] && !traceHashed(request.workloads[wi]))
                hashes.push_back(wi);
        }
        std::stable_sort(hashes.begin(), hashes.end(),
                         [&](std::size_t a, std::size_t b) {
                             return resident[a]->size() >
                                    resident[b]->size();
                         });
        std::vector<std::size_t> worker(
            std::min<std::size_t>(jobs, hashes.size()), 0);
        for (const std::size_t wi : hashes) {
            auto &least = *std::min_element(worker.begin(), worker.end());
            least += resident[wi]->size();
            hashed_by[wi] = least;
            tasks.push_back({wi, 0, resident[wi]->size(), 0, true});
        }
    }
    const std::size_t first_work = tasks.size();
    for (std::size_t k = 0; sampled && k < p.cells.size(); ++k) {
        const trace::Trace *t = resident[k / n_c];
        tasks.push_back({k, 0, t ? t->size() : 0, hashed_by[k / n_c]});
    }
    for (std::size_t wi = 0; !sampled && wi < n_w; ++wi) {
        shards[wi] = resident[wi] ? units.size()
                                  : std::clamp<std::size_t>(
                                        jobs / n_w, 1, units.size());
        for (std::size_t s = 0; s < shards[wi]; ++s)
            tasks.push_back({wi, s,
                             resident[wi] ? resident[wi]->size()
                                          : request.workloads[wi].records});
    }
    std::stable_sort(tasks.begin() + first_work, tasks.end(),
                     [](const Task &a, const Task &b) {
                         return a.hashedBy != b.hashedBy
                                    ? a.hashedBy < b.hashedBy
                                    : a.size > b.size;
                     });

    std::atomic<std::size_t> fresh_stack{0};
    const auto traverseShard = [&](std::size_t wi, std::size_t shard,
                                   bool wait) {
        std::vector<TraversalCell> cells;
        std::vector<StoredCell *> slots;
        for (std::size_t u = shard; u < units.size(); u += shards[wi]) {
            for (const std::size_t ci : units[u]) {
                const Plan::Cell &c = p.cells[wi * n_c + ci];
                cells.push_back({&request.configs[ci], c.slot,
                                 c.engine == EngineTag::StackSinglePass});
                slots.push_back(c.slot);
            }
        }
        return settle(
            slots,
            [&](const std::vector<std::size_t> &claimed) {
                std::vector<const TraversalCell *> mine;
                for (const std::size_t i : claimed)
                    mine.push_back(&cells[i]);
                traverse(request.workloads[wi], resident[wi], mine);
                for (const TraversalCell *c : mine)
                    fresh_stack += c->stack;
            },
            wait);
    };
    // Whether each task still has cells another request holds.
    std::vector<char> open(tasks.size(), 0);
    const auto execute = [&](std::size_t i, bool wait) {
        const Task &task = tasks[i];
        const auto t0 = std::chrono::steady_clock::now();
        if (task.hash) {
            traceHashOf(request.workloads[task.index]);
        } else if (sampled) {
            const std::size_t wi = task.index / n_c;
            const std::size_t ci = task.index % n_c;
            StoredCell &cell = *p.cells[task.index].slot;
            open[i] = !settle(
                {&cell},
                [&](const std::vector<std::size_t> &) {
                    sampleCell(cell, request.workloads[wi],
                               request.configs[ci], p.cacheKeys[ci],
                               request, p.libraryDir);
                },
                wait);
        } else {
            open[i] = !traverseShard(task.index, task.shard, wait);
        }
        busy_ns.fetch_add(nanosSince(t0));
    };

    // Declared after the lambdas its tasks reference: unwinding joins
    // the workers before those go out of scope.
    std::optional<util::ThreadPool> pool;
    if (jobs > 1 && tasks.size() > 1)
        pool.emplace(jobs);
    // Round one (wait false) claims and fills every cell it can and
    // waits for none; round two waits for the cells other requests
    // hold.
    const auto run_round = [&](bool wait) {
        std::vector<std::size_t> which;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            if (!wait || open[i])
                which.push_back(i);
        }
        if (!pool) {
            for (const std::size_t i : which)
                execute(i, wait);
            return;
        }
        std::vector<std::future<void>> futures;
        futures.reserve(which.size());
        for (const std::size_t i : which)
            futures.push_back(
                pool->submit([&execute, i, wait] { execute(i, wait); }));
        // Every task must finish before get() re-raises an exception
        // one threw: the tasks reference this frame.
        for (auto &f : futures)
            f.wait();
        for (auto &f : futures)
            f.get();
    };
    run_round(false);
    run_round(true);
    if (const std::size_t stack = n_w * p.family.size(); stack > 0)
        count("stack.pass.cached_cells",
              "sweep cells served from the stack store",
              stack - fresh_stack.load());

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
            r.cacheKey = p.cacheKeys[ci];
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
                // The re-replay reads the records the way the
                // traversal did: a streamed trace stays streamed.
                if (instrument) {
                    const Workload &w = request.workloads[wi];
                    if (!resident[wi] && w.stream)
                        mc.stream = &w.stream;
                    else
                        mc.trace = resident[wi] ? resident[wi] : &traceOf(w);
                }
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
            // A --checkpoint-rebuild cell's slot dies with the plan.
            emitter.emit(mc, c.engine, r.cacheKey,
                         p.rebuilt.empty() ? c.slot : nullptr, &r);
        }
        if (request.telemetry.suiteTotals && exact_only &&
            emitter.claim("suite-total", p.cacheKeys[ci])) {
            ManifestCell mc;
            mc.workload = "suite-total";
            mc.config = &cfg;
            mc.stats = &suite_total;
            mc.simSeconds = suite_seconds;
            mc.extraTiming = &phases;
            emitter.emit(mc, EngineTag::ExactReplay, p.cacheKeys[ci],
                         nullptr, nullptr);
        }
    }
    count("manifest.renders", "manifest documents rendered by emission",
          emitter.renders);
    count("manifest.reuses",
          "emissions served a stored cell's manifest document",
          emitter.reuses);
    count("manifest.bytes", "bytes of manifest documents stored with cells",
          emitter.bytes);
    return out;
}

} // namespace harness
} // namespace sac
