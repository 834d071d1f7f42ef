#include "src/harness/experiment.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>

#include "src/harness/sweep.hh"
#include "src/sim/checkpoint.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/manifest.hh"
#include "src/util/logging.hh"
#include "src/util/thread_pool.hh"
#include "src/workloads/workloads.hh"

namespace sac {
namespace harness {

Metric
amatMetric()
{
    return {"AMAT", [](const sim::RunStats &s) { return s.amat(); }, 3};
}

Metric
missRatioMetric()
{
    return {"miss ratio",
            [](const sim::RunStats &s) { return s.missRatio(); }, 4};
}

Metric
wordsPerAccessMetric()
{
    return {"words/ref",
            [](const sim::RunStats &s) {
                return s.wordsFetchedPerAccess();
            },
            3};
}

Metric
mainHitShareMetric()
{
    return {"main-hit share",
            [](const sim::RunStats &s) { return s.mainHitShare(); },
            3};
}

Metric
auxHitShareMetric()
{
    return {"aux-hit share",
            [](const sim::RunStats &s) { return s.auxHitShare(); }, 3};
}

Runner::TraceSlot &
Runner::slotOf(const Workload &w)
{
    TraceSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = traces_[w.name];
        if (!entry)
            entry = std::make_unique<TraceSlot>();
        slot = entry.get(); // stable: the map holds pointers
    }
    std::call_once(slot->once, [&] {
        const telemetry::ScopedPhase phase(phases_, "trace-gen");
        slot->value = w.build();
        tracesGenerated_.fetch_add(1);
    });
    return *slot;
}

const trace::Trace &
Runner::traceOf(const Workload &w)
{
    return slotOf(w).value;
}

std::uint64_t
Runner::traceHashOf(const Workload &w)
{
    TraceSlot &slot = slotOf(w);
    std::call_once(slot.hashOnce,
                   [&slot] { slot.hash = sim::hashTrace(slot.value); });
    return slot.hash;
}

void
Runner::warmup(const std::vector<Workload> &workloads)
{
    const telemetry::ScopedPhase phase(phases_, "warmup");
    for (const auto &w : workloads)
        traceOf(w);
}

bool
stackFamilyEligible(const core::Config &cfg)
{
    // Only the Standard feature path is a plain LRU cache the stack
    // model reproduces. featureSetOf() does not look at
    // preferNonTemporalReplacement (it changes the victim choice, not
    // the feature lattice), so it is excluded here explicitly.
    return core::featureSetOf(cfg) == core::FeatureSet::Standard &&
           !cfg.preferNonTemporalReplacement &&
           stackPointOf(cfg).wellFormed();
}

bool
stackDerivableMetric(const Metric &metric)
{
    return metric.name == "miss ratio" ||
           metric.name == "words/ref" ||
           metric.name == "main-hit share" ||
           metric.name == "aux-hit share";
}

sim::StackPoint
stackPointOf(const core::Config &cfg)
{
    return {cfg.cacheSizeBytes, cfg.lineBytes, cfg.assoc};
}

sim::RunStats
stackStatsFor(const sim::StackDistanceEngine &eng,
              const core::Config &cfg)
{
    sim::RunStats s;
    s.accesses = eng.accesses();
    s.reads = eng.reads();
    s.writes = eng.writes();
    s.misses = eng.missCount(stackPointOf(cfg));
    // Standard path: every non-miss hits the main array, and every
    // miss fetches exactly one physical line (write-allocate).
    s.mainHits = s.accesses - s.misses;
    s.linesFetched = s.misses;
    s.bytesFetched = s.misses * cfg.lineBytes;
    return s;
}

Runner::StoredCell &
Runner::slot(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &entry = cells_[key];
    if (!entry)
        entry = std::make_unique<StoredCell>();
    return *entry; // stable: the map holds pointers
}

void
Runner::count(const char *name, const char *desc, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.counter(name, desc) += delta;
}

std::uint64_t
Runner::stackCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.value(name);
}

// One registry holds every counter family; the per-family accessors
// differ only in the names their callers pass.
std::uint64_t
Runner::checkpointCounter(const std::string &name) const
{
    return stackCounter(name);
}

void
Runner::replayCell(StoredCell &cell, const Workload &w,
                   const core::Config &cfg)
{
    std::call_once(cell.once, [&] {
        const trace::Trace &t = traceOf(w);
        const telemetry::ScopedPhase phase(phases_, "sim");
        cell.stats = core::simulateTrace(t, cfg);
        cell.seconds = phase.elapsed();
        runsExecuted_.fetch_add(1);
    });
}

void
Runner::runStackFamily(
    const Workload &w,
    const std::vector<std::pair<const core::Config *, StoredCell *>>
        &family)
{
    // Serialize passes per workload: a concurrent request covering
    // the same family waits here, then finds the store filled and
    // skips its own traversal (cells shared, one pass total).
    std::mutex *pass_mutex = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = passMutexes_[w.name];
        if (!entry)
            entry = std::make_unique<std::mutex>();
        pass_mutex = entry.get();
    }
    std::lock_guard<std::mutex> pass_lock(*pass_mutex);

    std::size_t missing = 0;
    for (const auto &member : family)
        missing += !member.second->filled.load();
    count("stack.pass.cached_cells",
          "sweep cells served from the stack store",
          family.size() - missing);
    if (missing == 0)
        return;

    // One traversal covers the whole family, so even a request that
    // adds a single new point to a mostly-cached family costs one
    // pass, never per-point replays.
    std::vector<sim::StackPoint> points;
    points.reserve(family.size());
    for (const auto &member : family)
        points.push_back(stackPointOf(*member.first));

    const trace::Trace &t = traceOf(w);
    std::optional<sim::StackDistanceEngine> eng;
    {
        const telemetry::ScopedPhase phase(phases_, "stack-pass");
        eng.emplace(points);
        eng->feed(t.data(), t.size());
    }

    for (const auto &member : family) {
        StoredCell &cell = *member.second;
        if (cell.filled.load())
            continue;
        cell.stats = stackStatsFor(*eng, *member.first);
        cell.filled.store(true);
    }
    count("stack.pass.traversals",
          "single-pass stack traversals executed", 1);
    count("stack.pass.records", "records profiled by stack traversals",
          eng->accesses());
    count("stack.pass.cells", "sweep cells served fresh from a stack "
                              "pass",
          missing);
}

std::vector<sim::RunStats>
Runner::runStreamed(const Workload &w,
                    const std::vector<core::Config> &configs,
                    unsigned jobs, std::size_t chunk_records)
{
    const telemetry::ScopedPhase phase(phases_, "sweep-streamed");
    std::vector<std::unique_ptr<core::SoftwareAssistedCache>> sims;
    sims.reserve(configs.size());
    for (const auto &cfg : configs)
        sims.push_back(
            std::make_unique<core::SoftwareAssistedCache>(cfg));

    // Producer: the workload's native streaming entry when it has
    // one; otherwise generate the full trace and replay it (still
    // correct, but memory then scales with the trace length).
    const auto produce =
        w.stream ? w.stream
                 : std::function<void(const trace::RecordSink &)>(
                       [&w](const trace::RecordSink &sink) {
                           const trace::Trace t = w.build();
                           for (const auto &rec : t)
                               sink(rec);
                       });
    // One bounded queue between the producer thread and this thread;
    // the per-config fan-out below is a barrier per chunk, so no
    // simulator can fall behind and no per-config queue can fill up
    // while its consumer is unscheduled (the deadlock a per-config
    // queue design would allow when pool threads < configs).
    trace::GeneratorTraceSource src(w.name, produce, chunk_records);

    // More workers than simulators can never help: each simulator is
    // sequential over its records.
    const std::size_t groups =
        std::min<std::size_t>(jobs, configs.size());
    std::optional<util::ThreadPool> pool;
    if (groups > 1)
        pool.emplace(static_cast<unsigned>(groups));

    // Double-buffered chunks: while the pool replays one chunk, this
    // thread already pulls the next from the producer queue, so the
    // queue handoff overlaps simulation instead of serializing with
    // it at every barrier.
    std::vector<trace::Record> batches[2] = {
        std::vector<trace::Record>(chunk_records),
        std::vector<trace::Record>(chunk_records)};
    std::vector<std::future<void>> tasks;
    tasks.reserve(groups);

    std::size_t cur = 0;
    std::size_t n = src.next(batches[cur].data(), chunk_records);
    while (n > 0) {
        if (pool) {
            // Fan the chunk out as `groups` contiguous simulator
            // groups — one task per worker, not per config, so the
            // per-chunk submit/notify overhead does not scale with
            // the sweep width.
            tasks.clear();
            const std::size_t per = (sims.size() + groups - 1) / groups;
            const trace::Record *data = batches[cur].data();
            for (std::size_t g0 = 0; g0 < sims.size(); g0 += per) {
                const std::size_t g1 =
                    std::min(sims.size(), g0 + per);
                tasks.push_back(pool->submit([&sims, g0, g1, data, n] {
                    for (std::size_t s = g0; s < g1; ++s)
                        sims[s]->replay(data, n);
                }));
            }
            const std::size_t nxt = 1 - cur;
            const std::size_t n_next =
                src.next(batches[nxt].data(), chunk_records);
            // Barrier: re-raises any worker exception; after it the
            // just-replayed buffer is free to be overwritten.
            for (auto &t : tasks)
                t.get();
            cur = nxt;
            n = n_next;
        } else {
            for (auto &sim : sims)
                sim->replay(batches[cur].data(), n);
            n = src.next(batches[cur].data(), chunk_records);
        }
    }

    std::vector<sim::RunStats> out;
    out.reserve(sims.size());
    for (auto &sim : sims) {
        sim->finish();
        out.push_back(sim->stats());
    }
    runsExecuted_.fetch_add(sims.size());
    return out;
}

void
Runner::sampleCell(StoredCell &cell, const Workload &w,
                   const core::Config &cfg, const SweepRequest &request,
                   const std::string &library_dir,
                   std::uint64_t trace_hash)
{
    std::call_once(cell.once, [&] {
        const sim::SamplingOptions &opt = request.sampling;
        const sim::SampledEngine engine(opt);
        const auto t0 = std::chrono::steady_clock::now();
        const trace::Trace &t = traceOf(w);
        trace::MemoryTraceSource src(t);
        core::SoftwareAssistedCache sim(cfg);
        if (library_dir.empty()) {
            cell.report = engine.run(src, sim);
        } else {
            sim::CheckpointKey key;
            key.traceHash = trace_hash;
            key.configKey = cfg.cacheKey();
            key.window = opt.window;
            key.stride = opt.stride;
            key.warmup = opt.warmup;
            const std::string path = sim::CheckpointLibrary::pathFor(
                library_dir, t.name(), key);

            sim::CheckpointLibrary lib;
            using LoadResult = sim::CheckpointLibrary::LoadResult;
            const LoadResult r = request.checkpointRebuild
                                     ? LoadResult::Missing
                                     : lib.load(path, key);
            auto &outcome = cell.checkpoint;
            if (r == LoadResult::Hit) {
                outcome.hits = 1;
                outcome.bytes = lib.loadedBytes();
                count("checkpoint.hits",
                      "sampled cells served from a live-point library",
                      1);
            } else {
                // Warm once through the builder (a warming-only mirror
                // of the sampled replay), persist, then run the same
                // restore path a hit takes.
                core::SoftwareAssistedCache warmer(cfg);
                trace::MemoryTraceSource warm_src(t);
                engine.buildLibrary(warm_src, warmer, lib);
                outcome.bytes = lib.save(path, key);
                outcome.misses = 1;
                outcome.stale = r == LoadResult::Stale ? 1 : 0;
                if (outcome.stale)
                    count("checkpoint.stale",
                          "libraries rejected as stale (key, version or "
                          "file mismatch)",
                          1);
                count("checkpoint.misses",
                      "sampled cells that warmed and wrote a library",
                      1);
            }
            count("checkpoint.bytes", "bytes moved through .saclp files",
                  outcome.bytes);
            cell.report = engine.runCheckpointed(src, sim, lib);
        }
        cell.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        runsExecuted_.fetch_add(1);
    });
}

std::vector<Workload>
paperWorkloads(std::uint64_t seed)
{
    std::vector<Workload> out;
    for (const auto &b : workloads::paperBenchmarks()) {
        out.push_back(
            {b.name,
             [name = b.name, seed] {
                 return workloads::makeBenchmarkTrace(name, seed);
             },
             [name = b.name, seed](const trace::RecordSink &sink) {
                 workloads::streamBenchmarkTrace(name, sink, seed);
             }});
    }
    return out;
}

namespace {

/** Quote a CSV field when it contains separators or quotes. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
toCsv(const util::Table &table)
{
    std::ostringstream os;
    for (std::size_t c = 0; c < table.cols(); ++c) {
        if (c)
            os << ',';
        os << csvField(table.header(c));
    }
    os << '\n';
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 0; c < table.cols(); ++c) {
            if (c)
                os << ',';
            os << csvField(table.cell(r, c));
        }
        os << '\n';
    }
    return os.str();
}

bool
writeCsvFile(const util::Table &table, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << toCsv(table);
    return static_cast<bool>(os);
}

} // namespace harness
} // namespace sac
