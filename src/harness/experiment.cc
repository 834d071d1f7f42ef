#include "src/harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "src/harness/sweep.hh"
#include "src/sim/checkpoint.hh"
#include "src/telemetry/counter_registry.hh"
#include "src/telemetry/manifest.hh"
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
        slot->built.store(true);
    });
    return *slot;
}

const trace::Trace *
Runner::residentTrace(const Workload &w)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = traces_.find(w.name);
    return it != traces_.end() && it->second->built.load()
               ? &it->second->value
               : nullptr;
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
    std::call_once(slot.hashOnce, [&slot] {
        slot.hash = sim::hashTrace(slot.value);
        slot.hashed.store(true);
    });
    return slot.hash;
}

bool
Runner::traceHashed(const Workload &w)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = traces_.find(w.name);
    return it != traces_.end() && it->second->hashed.load();
}

const sim::PackedOutcomes &
Runner::outcomesOf(const Workload &w, const trace::Trace &t,
                   const core::Config &cfg)
{
    LatchedOutcomes *latch = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &entry = traces_.at(w.name)->outcomes[{cfg.lineBytes,
                                                    cfg.cacheSizeBytes}];
        if (!entry)
            entry = std::make_unique<LatchedOutcomes>();
        latch = entry.get(); // stable: the map holds pointers
    }
    std::call_once(latch->once, [&] {
        const telemetry::ScopedPhase phase(phases_, "classify");
        sim::MissClassifier classifier = sim::shadowClassifierOf(cfg);
        std::vector<sim::ShadowOutcome> chunk(
            trace::TraceSource::defaultChunkRecords);
        latch->value.reserve(t.size());
        for (std::size_t i = 0; i < t.size(); i += chunk.size()) {
            const std::size_t n = std::min(chunk.size(), t.size() - i);
            classifier.classify(t.data() + i, n, chunk.data());
            latch->value.append(chunk.data(), n);
        }
        count("classify.passes", "shadow miss-classification passes", 1);
        count("classify.records", "records classified by those passes",
              t.size());
        count("classify.bytes", "bytes of latched shadow outcomes",
              latch->value.bytes());
    });
    return latch->value;
}

void
Runner::warmup(const std::vector<Workload> &workloads, unsigned jobs)
{
    const telemetry::ScopedPhase phase(phases_, "warmup");
    std::vector<const Workload *> cold;
    for (const auto &w : workloads) {
        if (!residentTrace(w))
            cold.push_back(&w);
    }
    if (jobs <= 1 || cold.size() <= 1) {
        for (const Workload *w : cold)
            traceOf(*w);
        return;
    }
    // traceOf() latches each slot, so a workload listed twice or
    // requested by another thread meanwhile is still built once.
    util::ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(jobs, cold.size())));
    std::vector<std::future<void>> futures;
    futures.reserve(cold.size());
    for (const Workload *w : cold)
        futures.push_back(pool.submit([this, w] { traceOf(*w); }));
    // Every task must finish before get() re-raises an exception one
    // threw: the tasks reference the caller's workloads.
    for (auto &f : futures)
        f.wait();
    for (auto &f : futures)
        f.get();
}

bool
stackFamilyEligible(const core::Config &cfg)
{
    // The stack model reproduces only a plain LRU cache: no aux
    // buffer, virtual lines, prefetch or bypass, and no replacement
    // priority for non-temporal lines (it changes the victim choice).
    return cfg.auxLines == 0 && !cfg.virtualLines && !cfg.prefetch &&
           cfg.bypass == core::BypassMode::None &&
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
    // A plain cache: every non-miss hits the main array, and every
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
Runner::classifyCounter(const std::string &name) const
{
    return stackCounter(name);
}

std::uint64_t
Runner::checkpointCounter(const std::string &name) const
{
    return stackCounter(name);
}

std::uint64_t
Runner::manifestCounter(const std::string &name) const
{
    return stackCounter(name);
}

bool
Runner::settle(
    const std::vector<StoredCell *> &slots,
    const std::function<void(const std::vector<std::size_t> &)> &fill,
    bool wait)
{
    const auto set = [](StoredCell &cell, StoredCell::State state) {
        cell.state.store(state);
        cell.state.notify_all();
    };
    std::vector<std::size_t> claimed;
    for (;;) {
        // Claim under the runner mutex: a concurrent request over the
        // same workload sees either all of these claims or none, so
        // two tasks never split one stack family into two passes.
        claimed.clear();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::size_t i = 0; i < slots.size(); ++i) {
                auto expected = StoredCell::Empty;
                if (slots[i]->state.compare_exchange_strong(
                        expected, StoredCell::Running))
                    claimed.push_back(i);
            }
        }
        if (!claimed.empty()) {
            try {
                fill(claimed);
            } catch (...) {
                for (const std::size_t i : claimed)
                    set(*slots[i], StoredCell::Empty);
                throw;
            }
            for (const std::size_t i : claimed)
                set(*slots[i], StoredCell::Filled);
        }
        // Wait (when asked to) for the cells other tasks hold; one
        // handed back Empty by a failed claimer is claimed on the
        // next round.
        bool filled = true;
        for (StoredCell *cell : slots) {
            auto state = cell->state.load();
            for (; wait && state == StoredCell::Running;
                 state = cell->state.load())
                cell->state.wait(StoredCell::Running);
            filled = filled && state == StoredCell::Filled;
        }
        if (filled || !wait)
            return filled;
    }
}

void
Runner::traverse(const Workload &w, const trace::Trace *resident,
                 const std::vector<const TraversalCell *> &cells)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    // Each reading of the clock closes one consumer's share of it.
    auto t = start;
    const auto lap = [&t] {
        const auto now = Clock::now();
        const double s = std::chrono::duration<double>(now - t).count();
        t = now;
        return s;
    };
    if (!resident && !w.stream)
        resident = &traceOf(w);

    // One shadow outcome source per distinct geometry of the exact
    // cells that classify misses, shared by all the cells of it.
    struct Shadow
    {
        const core::Config *config; //!< the first cell of the geometry
        const sim::PackedOutcomes *latched = nullptr; //!< resident
        std::optional<sim::MissClassifier> classifier; //!< streamed
        std::vector<sim::ShadowOutcome> chunk; //!< the chunk's outcomes
    };
    std::vector<Shadow> shadows;
    constexpr std::size_t none = ~std::size_t{0};
    std::vector<std::size_t> shadow_of; // per simulator

    std::vector<const TraversalCell *> exact, stacked;
    std::vector<std::unique_ptr<core::SoftwareAssistedCache>> sims;
    std::vector<sim::StackPoint> points;
    std::set<std::uint32_t> line_groups; // of the stack points
    for (const TraversalCell *c : cells) {
        const core::Config &cfg = *c->config;
        if (c->stack) {
            stacked.push_back(c);
            points.push_back(stackPointOf(cfg));
            line_groups.insert(cfg.lineBytes);
            continue;
        }
        exact.push_back(c);
        sims.push_back(std::make_unique<core::SoftwareAssistedCache>(cfg));
        sims.back()->attachIntervalRecorder(c->recorder);
        sims.back()->attachSetProfiler(c->profiler);
        shadow_of.push_back(none);
        if (!cfg.classifyMisses)
            continue;
        std::size_t k = 0;
        while (k < shadows.size() &&
               (shadows[k].config->lineBytes != cfg.lineBytes ||
                shadows[k].config->cacheSizeBytes != cfg.cacheSizeBytes))
            ++k;
        if (k == shadows.size())
            shadows.push_back({&cfg, nullptr, std::nullopt, {}});
        shadow_of.back() = k;
    }
    std::vector<double> sim_seconds(sims.size(), 0.0);
    std::optional<sim::StackDistanceEngine> eng;
    double stack_seconds = 0.0;
    if (!points.empty()) {
        t = Clock::now();
        eng.emplace(points);
        stack_seconds = lap();
    }
    constexpr std::size_t chunk = trace::TraceSource::defaultChunkRecords;
    for (Shadow &sh : shadows) {
        if (resident)
            sh.latched = &outcomesOf(w, *resident, *sh.config);
        else
            sh.classifier.emplace(sim::shadowClassifierOf(*sh.config));
        sh.chunk.resize(chunk);
    }

    // Each chunk goes through the stack engine, then the shadows,
    // then every simulator.
    std::size_t records = 0; // fed so far
    double classify_seconds = 0.0;
    const auto feed = [&](const trace::Record *recs, std::size_t n) {
        const std::size_t first = records;
        records += n;
        t = Clock::now();
        if (eng) {
            eng->feed(recs, n);
            stack_seconds += lap();
        }
        for (Shadow &sh : shadows) {
            if (sh.latched)
                sh.latched->unpack(first, n, sh.chunk.data());
            else
                sh.classifier->classify(recs, n, sh.chunk.data());
        }
        if (!shadows.empty())
            classify_seconds += lap();
        for (std::size_t i = 0; i < sims.size(); ++i) {
            sims[i]->replay(recs, n,
                            shadow_of[i] == none
                                ? nullptr
                                : shadows[shadow_of[i]].chunk.data());
            sim_seconds[i] += lap();
        }
    };

    if (resident) {
        for (std::size_t i = 0; i < resident->size(); i += chunk)
            feed(resident->data() + i,
                 std::min(chunk, resident->size() - i));
    } else {
        // The generator runs on this thread; each full chunk is
        // replayed before generation resumes.
        trace::streamChunks(w.stream, feed);
        tracesGenerated_.fetch_add(1);
    }

    double replay_seconds = 0.0;
    for (std::size_t i = 0; i < sims.size(); ++i) {
        t = Clock::now();
        sims[i]->finish();
        sim_seconds[i] += lap();
        exact[i]->slot->stats = sims[i]->stats();
        exact[i]->slot->seconds = sim_seconds[i];
        replay_seconds += sim_seconds[i];
    }
    for (const TraversalCell *c : stacked)
        c->slot->stats = stackStatsFor(*eng, *c->config);

    if (!sims.empty()) {
        phases_.add("sim", replay_seconds);
        runsExecuted_.fetch_add(sims.size());
    }
    if (!shadows.empty())
        phases_.add("classify", classify_seconds);
    if (!resident && !shadows.empty()) {
        count("classify.passes", "shadow miss-classification passes",
              shadows.size());
        count("classify.records", "records classified by those passes",
              records * shadows.size());
    }
    if (eng) {
        phases_.add("stack-pass", stack_seconds);
        // The engine reads the records once per line group, so each
        // group counts as a traversal of its own.
        count("stack.pass.traversals",
              "single-pass stack traversals executed",
              line_groups.size());
        count("stack.pass.records",
              "records profiled by stack traversals",
              eng->accesses() * line_groups.size());
        count("stack.pass.mru_records",
              "records whose line every set count already held at MRU",
              eng->mruRecords());
        count("stack.pass.cells",
              "sweep cells served fresh from a stack pass",
              stacked.size());
    }
    if (!resident) {
        const double total =
            std::chrono::duration<double>(Clock::now() - start).count();
        phases_.add("trace-gen",
                    std::max(0.0, total - replay_seconds - stack_seconds -
                                      classify_seconds));
    }
}

void
Runner::sampleCell(StoredCell &cell, const Workload &w,
                   const core::Config &cfg, const std::string &cache_key,
                   const SweepRequest &request,
                   const std::string &library_dir)
{
    const sim::SamplingOptions &opt = request.sampling;
    const sim::SampledEngine engine(opt);
    const auto t0 = std::chrono::steady_clock::now();
    const trace::Trace &t = traceOf(w);
    if (library_dir.empty()) {
        trace::MemoryTraceSource src(t);
        core::SoftwareAssistedCache sim(cfg);
        cell.report = engine.run(src, sim);
    } else {
        sim::CheckpointLibrary lib;
        const auto replay = [&] {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfg);
            return engine.runCheckpointed(src, sim, lib);
        };
        // The path leaves the trace hash out, so the library can be
        // loaded and replayed before the hash is known.
        sim::CheckpointKey key;
        key.configKey = cache_key;
        key.window = opt.window;
        key.stride = opt.stride;
        key.warmup = opt.warmup;
        const std::string path = sim::CheckpointLibrary::pathFor(
            library_dir, t.name(), key);

        using LoadResult = sim::CheckpointLibrary::LoadResult;
        LoadResult r = request.checkpointRebuild
                           ? LoadResult::Missing
                           : lib.loadAnyTrace(path, key);
        if (r == LoadResult::Hit) {
            cell.report = replay();
            // Only now wait for the trace's hash (Runner::run queues
            // it ahead of the cells): a library built from another
            // trace is stale, and its replay is dropped.
            if (lib.traceHash() != traceHashOf(w))
                r = LoadResult::Stale;
        }
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
            key.traceHash = traceHashOf(w);
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
            cell.report = replay();
        }
        count("checkpoint.bytes", "bytes moved through .saclp files",
              outcome.bytes);
    }
    cell.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    runsExecuted_.fetch_add(1);
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
