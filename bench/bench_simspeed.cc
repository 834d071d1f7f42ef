/**
 * @file
 * Simulator throughput benchmarks (google-benchmark): trace
 * generation speed, simulation speed per configuration, the
 * streaming engine against materialize-then-replay, warm manifest
 * emission and a warm live-point request. These are
 * engineering benchmarks of the reproduction itself, not paper
 * figures.
 *
 * The perf leg of tools/check.sh runs this binary with a JSON
 * reporter and diffs items_per_second against the committed
 * BENCH_simspeed.json baseline (tools/perf_compare.py). The report
 * context records the simulator's build type so the gate can refuse
 * a baseline taken on a different build.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "src/check/auditor.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/bench_options.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/service/protocol.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/sampling.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/interval.hh"
#include "src/telemetry/set_profile.hh"
#include "src/trace/trace_source.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;

const trace::Trace &
mvTrace()
{
    static const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(200));
    return t;
}

void
BM_TraceGeneration(benchmark::State &state)
{
    std::uint64_t seed = 1;
    for (auto _ : state) {
        const auto t = workloads::makeTaggedTrace(
            workloads::buildMv(100), seed++);
        benchmark::DoNotOptimize(t.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * (100 * 100 * 2 + 100 * 2)));
}
BENCHMARK(BM_TraceGeneration);

/**
 * Generation through the plan's checked path: the sparse product's
 * indirect bounds, index loads and gathers are evaluated and checked
 * per record instead of strength-reduced.
 */
void
BM_TraceGenerationIndirect(benchmark::State &state)
{
    std::uint64_t seed = 1;
    std::int64_t records = 0;
    for (auto _ : state) {
        const auto t = workloads::makeTaggedTrace(
            workloads::buildSpMv(200), seed++);
        benchmark::DoNotOptimize(t.size());
        records += static_cast<std::int64_t>(t.size());
    }
    state.SetItemsProcessed(records);
}
BENCHMARK(BM_TraceGenerationIndirect);

void
BM_LocalityAnalysis(benchmark::State &state)
{
    for (auto _ : state) {
        auto p = workloads::buildLiv(workloads::Scale{0.1});
        p.finalize();
        const auto r = locality::analyze(p);
        benchmark::DoNotOptimize(r.tags.size());
    }
}
BENCHMARK(BM_LocalityAnalysis);

/**
 * core::simulateTrace of @p cfg: the classifier runs beside the
 * simulator; the *Preclassified rows time the replay alone.
 */
void
simulateConfig(benchmark::State &state, const core::Config &cfg)
{
    const auto &t = mvTrace();
    for (auto _ : state) {
        const auto s = core::simulateTrace(t, cfg);
        benchmark::DoNotOptimize(s.totalAccessCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}

void
BM_SimulateStandard(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("standard"));
}
BENCHMARK(BM_SimulateStandard);

void
BM_SimulateSoft(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("soft"));
}
BENCHMARK(BM_SimulateSoft);

void
BM_SimulateSoftPrefetch(benchmark::State &state)
{
    simulateConfig(state, core::presets().get("soft-prefetch"));
}
BENCHMARK(BM_SimulateSoftPrefetch);

/**
 * Same workload as BM_SimulateSoft but with a check::Auditor
 * attached: the Observed access path plus the full per-access
 * invariant sweep.
 */
void
BM_SimulateSoftAudited(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        check::Auditor auditor(check::Auditor::OnViolation::Panic);
        sim.attachAuditor(&auditor);
        sim.run(t);
        benchmark::DoNotOptimize(sim.stats().totalAccessCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateSoftAudited);

/**
 * Same workload as BM_SimulateSoft but with an IntervalRecorder and a
 * SetProfiler attached: the cost of the Observed access path plus the
 * per-access countdown and the per-set counter updates, i.e. what
 * `--interval`/`--heatmap` add to a replay.
 */
void
BM_SimulateSoftInterval(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        telemetry::IntervalRecorder recorder(10000);
        telemetry::SetProfiler profiler(sim.mainArray().numSets());
        sim.attachIntervalRecorder(&recorder);
        sim.attachSetProfiler(&profiler);
        sim.run(t);
        benchmark::DoNotOptimize(sim.stats().totalAccessCycles);
        benchmark::DoNotOptimize(profiler.totalMisses());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateSoftInterval);

/**
 * Functional-warming pair: the same trace and configuration as
 * BM_SimulateSoft, replayed through runWarming(), where the stats
 * counters and observer hooks are compiled out, no shadow classifier
 * runs beside the simulator and only architectural state advances. perf_compare.py asserts the
 * warming path runs at least 2x the detailed path.
 */
void
BM_SimulateSoftWarming(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        sim.runWarming(t.data(), t.size());
        benchmark::DoNotOptimize(sim.procReadyAt());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_SimulateSoftWarming);

/** BM_SimulateSoft with classifyMisses off: no shadow beside it. */
void
BM_SimulateNoClassifier(benchmark::State &state)
{
    auto cfg = core::presets().get("soft");
    cfg.classifyMisses = false;
    simulateConfig(state, cfg);
}
BENCHMARK(BM_SimulateNoClassifier);

/**
 * The three-C shadow pass alone: the outcomes a harness::Runner
 * computes once per trace and geometry and shares among every exact
 * cell of that geometry.
 */
void
BM_ClassifyShadow(benchmark::State &state)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get("soft");
    std::vector<sim::ShadowOutcome> outcomes(t.size());
    for (auto _ : state) {
        sim::MissClassifier shadow = sim::shadowClassifierOf(cfg);
        shadow.classify(t.data(), t.size(), outcomes.data());
        benchmark::DoNotOptimize(outcomes.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_ClassifyShadow);

/**
 * Replay of @p preset on supplied shadow outcomes (classified once,
 * outside the timed loop): the replay an exact cell of a Runner
 * traversal runs, i.e. the detailed-replay rate of the preset.
 */
void
replayPreclassified(benchmark::State &state, const char *preset)
{
    const auto &t = mvTrace();
    const core::Config cfg = core::presets().get(preset);
    std::vector<sim::ShadowOutcome> outcomes(t.size());
    sim::shadowClassifierOf(cfg).classify(t.data(), t.size(),
                                           outcomes.data());
    for (auto _ : state) {
        core::SoftwareAssistedCache sim(cfg);
        sim.replay(t.data(), t.size(), outcomes.data());
        sim.finish();
        benchmark::DoNotOptimize(sim.stats().totalAccessCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * t.size()));
}

void
BM_SimulateStandardPreclassified(benchmark::State &state)
{
    replayPreclassified(state, "standard");
}
BENCHMARK(BM_SimulateStandardPreclassified);

void
BM_SimulateVictimPreclassified(benchmark::State &state)
{
    replayPreclassified(state, "victim");
}
BENCHMARK(BM_SimulateVictimPreclassified);

/**
 * perf_compare.py floors this row's ratio to BM_SimulateSoft, which
 * classifies with the simulator's own shadow.
 */
void
BM_SimulateSoftPreclassified(benchmark::State &state)
{
    replayPreclassified(state, "soft");
}
BENCHMARK(BM_SimulateSoftPreclassified);

void
BM_SimulateSoftPrefetchPreclassified(benchmark::State &state)
{
    replayPreclassified(state, "soft-prefetch");
}
BENCHMARK(BM_SimulateSoftPrefetchPreclassified);

/** The bypass preset (non-temporal references skip the cache). */
void
BM_SimulateGeneralPreclassified(benchmark::State &state)
{
    replayPreclassified(state, "bypass");
}
BENCHMARK(BM_SimulateGeneralPreclassified);

// Streaming vs. materialized: end-to-end "generate the MV trace and
// replay it under Soft." — first as the classic materialize-then-
// simulate sequence, then through Runner::run over a workload that
// streams: the generator fills one chunk at a time on the replaying
// thread, so memory stays bounded by the chunk size.

/** The tagged MV trace of order @p n as a workload that streams. */
harness::Workload
streamedMv(std::string name, std::int64_t n = 500,
           std::uint64_t seed = 0x7ac3ull)
{
    return {std::move(name),
            [n, seed] {
                return workloads::makeTaggedTrace(workloads::buildMv(n),
                                                  seed);
            },
            [n, seed](const trace::RecordSink &sink) {
                workloads::streamTaggedTrace(workloads::buildMv(n), sink,
                                             seed);
            }};
}

/** Run @p request on a fresh Runner per iteration; items = records
 *  x configs replayed. */
void
runFresh(benchmark::State &state, const harness::SweepRequest &request)
{
    std::int64_t items = 0;
    for (auto _ : state) {
        harness::Runner r;
        const auto result = r.run(request);
        benchmark::DoNotOptimize(result.table.rows());
        items = 0;
        for (const auto &cell : result.cells)
            items += static_cast<std::int64_t>(cell.stats.accesses);
    }
    state.SetItemsProcessed(state.iterations() * items);
}

void
BM_GenerateThenSimulateMaterialized(benchmark::State &state)
{
    const core::Config cfg = core::presets().get("soft");
    std::int64_t records = 0;
    for (auto _ : state) {
        const auto t = workloads::makeBenchmarkTrace("MV");
        const auto s = core::simulateTrace(t, cfg);
        benchmark::DoNotOptimize(s.totalAccessCycles);
        records = static_cast<std::int64_t>(t.size());
    }
    state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_GenerateThenSimulateMaterialized)->UseRealTime();

void
BM_GenerateThenSimulateStreamed(benchmark::State &state)
{
    harness::SweepRequest request;
    request.workloads = {streamedMv("MV")};
    request.configs = {core::presets().get("soft")};
    request.metric = harness::amatMetric();
    request.engine = harness::EngineSelect::Exact;
    runFresh(state, request);
}
BENCHMARK(BM_GenerateThenSimulateStreamed)->UseRealTime();

/**
 * Full-matrix sweep through harness::Runner::run at a given worker
 * count (Arg). Traces are pre-generated so the benchmark
 * isolates the sweep executor itself; a fresh Runner per iteration
 * keeps every cell uncached.
 */
const std::vector<trace::Trace> &
sweepTraces()
{
    static const std::vector<trace::Trace> traces = [] {
        std::vector<trace::Trace> out;
        for (int i = 0; i < 4; ++i) {
            auto t = workloads::makeTaggedTrace(
                workloads::buildMv(180), 0x7ac3ull + i);
            t.setName("MV" + std::to_string(i));
            out.push_back(std::move(t));
        }
        return out;
    }();
    return traces;
}

const std::vector<core::Config> &
sweepConfigs()
{
    static const std::vector<core::Config> cfgs = {
        core::presets().get("standard"),
        core::presets().get("soft-temporal"),
        core::presets().get("soft-spatial"),
        core::presets().get("soft")};
    return cfgs;
}

void
BM_MatrixSweep(benchmark::State &state)
{
    const auto jobs = static_cast<unsigned>(state.range(0));
    const auto &traces = sweepTraces();
    std::vector<harness::Workload> ws;
    for (std::size_t i = 0; i < traces.size(); ++i)
        ws.push_back({traces[i].name(),
                      [&traces, i] { return traces[i]; }, nullptr});
    harness::SweepRequest request;
    request.workloads = ws;
    request.configs = sweepConfigs();
    request.metric = harness::amatMetric();
    request.jobs = jobs;
    for (auto _ : state) {
        harness::Runner r;
        const auto result = r.run(request);
        benchmark::DoNotOptimize(result.table.rows());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * traces.front().size() * ws.size() *
        sweepConfigs().size()));
}
BENCHMARK(BM_MatrixSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Manifest rendering and streaming: a warm suite — every cell stored,
 * every document latched by a first emission — re-emitted through a
 * sink that frames each document as sacd streams it. Items =
 * manifests, so the rate is the warm sacd request's per-cell cost.
 */
void
BM_EmitWarmManifests(benchmark::State &state)
{
    const auto &traces = sweepTraces();
    harness::SweepRequest request;
    for (std::size_t i = 0; i < traces.size(); ++i)
        request.workloads.push_back(
            {traces[i].name(), [&traces, i] { return traces[i]; },
             nullptr});
    request.configs = sweepConfigs();
    request.metric = harness::amatMetric();
    std::size_t frame_bytes = 0;
    request.telemetry.sink = [&frame_bytes](const std::string &file,
                                            const std::string &document) {
        frame_bytes += service::manifestResponse(file, document).size();
    };
    harness::Runner r;
    r.run(request);
    std::int64_t manifests = 0;
    for (auto _ : state)
        manifests += static_cast<std::int64_t>(
            r.run(request).manifestsWritten);
    benchmark::DoNotOptimize(frame_bytes);
    state.SetItemsProcessed(manifests);
}
BENCHMARK(BM_EmitWarmManifests);

// Sampled vs. full-detail sweep: the MV trace under every sweep
// configuration, first simulated in full detail, then estimated by
// the windowed sampling engine (detailed windows + functional warming
// + fast-forward skip). Both report items = records *covered*, so the
// within-run items_per_second ratio is the end-to-end sweep speedup
// perf_compare.py asserts on (floor 5x). The geometry is the
// deep-warmup re-sweep shape of the EXPERIMENTS.md checkpoint recipe
// (window 512, stride 32768, warmup 10240): warming dominates the
// sampled cost, which is exactly what a live-point library
// (BM_SweepSampledCheckpointed below) exists to amortize, while the
// stride/window ratio keeps the sampled sweep itself >=5x full
// detail. Warming is bit-exact functional simulation, so deeper
// warmup only improves accuracy over the 2048-record minimum the
// SampledDifferential tests certify.

sim::SamplingOptions
sweepSamplingOptions()
{
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 32768;
    opt.warmup = 10240;
    return opt;
}

void
BM_SweepFullDetail(benchmark::State &state)
{
    const auto &t = mvTrace();
    for (auto _ : state) {
        for (const auto &cfg : sweepConfigs()) {
            const auto s = core::simulateTrace(t, cfg);
            benchmark::DoNotOptimize(s.totalAccessCycles);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepFullDetail);

void
BM_SweepSampled(benchmark::State &state)
{
    const auto &t = mvTrace();
    const sim::SampledEngine engine(sweepSamplingOptions());
    std::uint64_t windows = 0;
    for (auto _ : state) {
        for (const auto &cfg : sweepConfigs()) {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfg);
            const auto rep = engine.run(src, sim);
            benchmark::DoNotOptimize(rep.recordsTotal);
            windows = rep.windows;
        }
    }
    state.SetLabel("windows=" + std::to_string(windows));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepSampled);

/**
 * The same sampled sweep served from a warm live-point library: the
 * per-configuration checkpoint libraries are built once outside the
 * timed loop (the one-time warming pass --checkpoint-dir persists),
 * then every iteration restores each window's architectural state and
 * replays only the detailed windows, skipping functional warming
 * entirely. Items = records covered, like BM_SweepSampled, so the
 * within-run items_per_second ratio against BM_SweepSampled is the
 * warm re-sweep speedup perf_compare.py asserts on (floor 5x). The
 * Checkpoint tests prove the restored runs are bit-identical in
 * RunStats to the warmed runs, so the speedup is free of accuracy
 * loss.
 */
void
BM_SweepSampledCheckpointed(benchmark::State &state)
{
    const auto &t = mvTrace();
    const sim::SampledEngine engine(sweepSamplingOptions());
    static const std::vector<sim::CheckpointLibrary> libs = [] {
        const sim::SampledEngine eng(sweepSamplingOptions());
        std::vector<sim::CheckpointLibrary> out(
            sweepConfigs().size());
        for (std::size_t i = 0; i < sweepConfigs().size(); ++i) {
            core::SoftwareAssistedCache warmer(sweepConfigs()[i]);
            trace::MemoryTraceSource src(mvTrace());
            eng.buildLibrary(src, warmer, out[i]);
        }
        return out;
    }();
    std::uint64_t windows = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < sweepConfigs().size(); ++i) {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(sweepConfigs()[i]);
            const auto rep = engine.runCheckpointed(src, sim, libs[i]);
            benchmark::DoNotOptimize(rep.recordsTotal);
            windows = rep.windows;
        }
    }
    state.SetLabel("windows=" + std::to_string(windows));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * sweepConfigs().size()));
}
BENCHMARK(BM_SweepSampledCheckpointed);

// Single-pass stack sweep vs. per-configuration replay: the MV trace
// across the 8-cell standard family of Fig 9 ({4,8,16,32} KB x
// {1,2}-way, 32-byte lines), first replayed through the exact
// simulator once per configuration, then answered by ONE Mattson
// stack-distance traversal (sim::StackDistanceEngine). Both report
// items = records x configurations, so the within-run
// items_per_second ratio is the sweep speedup perf_compare.py asserts
// on (floor 4x). The StackDifferential tests prove the two produce
// bit-identical miss counts, so the speedup is free of accuracy loss.

const std::vector<core::Config> &
stackSweepConfigs()
{
    static const std::vector<core::Config> cfgs = [] {
        std::vector<core::Config> out;
        for (const std::uint64_t kb : {4, 8, 16, 32}) {
            for (const std::uint32_t ways : {1u, 2u}) {
                core::Config cfg = core::scaledConfig(
                    core::presets().get("standard"), kb * 1024, 32);
                cfg.assoc = ways;
                cfg.name += " A=" + std::to_string(ways);
                cfg.validate();
                out.push_back(std::move(cfg));
            }
        }
        return out;
    }();
    return cfgs;
}

void
BM_SweepPerConfigReplay(benchmark::State &state)
{
    const auto &t = mvTrace();
    for (auto _ : state) {
        for (const auto &cfg : stackSweepConfigs()) {
            const auto s = core::simulateTrace(t, cfg);
            benchmark::DoNotOptimize(s.misses);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * stackSweepConfigs().size()));
}
BENCHMARK(BM_SweepPerConfigReplay);

void
BM_SweepStackSinglePass(benchmark::State &state)
{
    const auto &t = mvTrace();
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : stackSweepConfigs())
        points.push_back(harness::stackPointOf(cfg));
    for (auto _ : state) {
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        std::uint64_t misses = 0;
        for (const auto &p : points)
            misses += eng.missCount(p);
        benchmark::DoNotOptimize(misses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * stackSweepConfigs().size()));
}
BENCHMARK(BM_SweepStackSinglePass);

// The full re-sweep lattice in ONE engine: {1..64} KB x {1,2,4,8}
// ways x {16,32,64}-byte lines, 84 points in three line groups of ten
// set counts each. Items = records x points, comparable with
// BM_SweepStackSinglePass's per-point rate.
void
sweepStackLattice(benchmark::State &state, const trace::Trace &t)
{
    std::vector<sim::StackPoint> points;
    for (std::uint64_t kb = 1; kb <= 64; kb *= 2) {
        for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
            for (const std::uint32_t line : {16u, 32u, 64u})
                points.push_back({kb * 1024, line, ways});
        }
    }
    for (auto _ : state) {
        sim::StackDistanceEngine eng(points);
        eng.feed(t.data(), t.size());
        std::uint64_t misses = 0;
        for (const auto &p : points)
            misses += eng.missCount(p);
        benchmark::DoNotOptimize(misses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * t.size() * points.size()));
}

void
BM_SweepStackLattice(benchmark::State &state)
{
    sweepStackLattice(state, mvTrace());
}
BENCHMARK(BM_SweepStackLattice);

// The same lattice over MV's record count of word addresses drawn
// uniformly from 1 MiB (seeded): a line is rarely at MRU of its set
// even at the smallest set count, so nearly every record walks every
// set count, and first touches search their arrays.
void
BM_SweepStackLatticeNoLocality(benchmark::State &state)
{
    static const trace::Trace t = [] {
        trace::Trace out("uniform-1MiB");
        util::Rng rng(1);
        for (std::size_t i = 0; i < mvTrace().size(); ++i)
            out.push(trace::Record{.addr = rng.nextBelow(1 << 18) * 4});
        return out;
    }();
    sweepStackLattice(state, t);
}
BENCHMARK(BM_SweepStackLatticeNoLocality);

/**
 * The same lattice through Runner::run over two resident MV
 * workloads, one four times the other's length (as Slalom dominates
 * the paper set), at a given worker count (Arg), a fresh Runner per
 * iteration: each workload's three line groups are traversals of
 * their own, so the long trace's passes run on three workers.
 * Items = records x points.
 */
void
BM_StackLatticeSweep(benchmark::State &state)
{
    static const std::vector<trace::Trace> traces = [] {
        std::vector<trace::Trace> out;
        for (const std::int64_t n : {360, 180}) {
            auto t = workloads::makeTaggedTrace(workloads::buildMv(n));
            t.setName("MV" + std::to_string(n));
            out.push_back(std::move(t));
        }
        return out;
    }();
    harness::SweepRequest request;
    for (const trace::Trace &t : traces)
        request.workloads.push_back(
            {t.name(), [&t] { return t; }, nullptr});
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
                request.configs.push_back(std::move(cfg));
            }
        }
    }
    request.metric = harness::missRatioMetric();
    request.jobs = static_cast<unsigned>(state.range(0));
    runFresh(state, request);
}
BENCHMARK(BM_StackLatticeSweep)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * BM_MatrixSweep's request over workloads that stream: each pool
 * task generates its MV-180 trace chunk by chunk while replaying it
 * under every sweep configuration, at a given worker count (Arg).
 */
void
BM_StreamedMatrixSweep(benchmark::State &state)
{
    harness::SweepRequest request;
    for (int i = 0; i < 4; ++i)
        request.workloads.push_back(
            streamedMv("MV" + std::to_string(i), 180, 0x7ac3ull + i));
    request.configs = sweepConfigs();
    request.metric = harness::amatMetric();
    request.jobs = static_cast<unsigned>(state.range(0));
    runFresh(state, request);
}
BENCHMARK(BM_StreamedMatrixSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * One sampled-livepoint AMAT request (standard, soft, soft-prefetch)
 * served by a fresh Runner per iteration at a given worker count
 * (Arg), over on-disk libraries a cold request wrote outside the
 * timed loop. One trace is about four times as long as the other
 * three together, as Slalom dominates the paper set: its content
 * hash (the library key) is the longest single task, which the other
 * cells and its own replays overlap. The geometry is warm-resweep's.
 * Items = records covered x configs.
 */
void
BM_LivepointRequest(benchmark::State &state)
{
    static const std::vector<trace::Trace> traces = [] {
        std::vector<trace::Trace> out;
        for (const std::int64_t n : {520, 150, 150, 150}) {
            auto t = workloads::makeTaggedTrace(workloads::buildMv(n),
                                                0x7ac3ull + out.size());
            t.setName("MV" + std::to_string(n) + "-" +
                      std::to_string(out.size()));
            out.push_back(std::move(t));
        }
        return out;
    }();
    harness::SweepRequest request;
    for (const trace::Trace &t : traces)
        request.workloads.push_back(
            {t.name(), [&t] { return t; }, nullptr});
    for (const auto &key : {"standard", "soft", "soft-prefetch"})
        request.configs.push_back(core::presets().get(key));
    request.metric = harness::amatMetric();
    request.engine = harness::EngineSelect::SampledLivepoint;
    request.sampling.window = 512;
    request.sampling.stride = 4096;
    request.sampling.warmup = 2048;
    request.checkpointDir =
        (std::filesystem::temp_directory_path() /
         ("sac-bench-livepoint-" + std::to_string(::getpid())))
            .string();
    request.jobs = static_cast<unsigned>(state.range(0));
    harness::Runner().run(request); // writes the libraries
    std::int64_t items = 0;
    for (auto _ : state) {
        harness::Runner r;
        const auto result = r.run(request);
        benchmark::DoNotOptimize(result.table.rows());
        items = 0;
        for (const auto &cell : result.cells)
            items += static_cast<std::int64_t>(cell.report->recordsTotal);
    }
    state.SetItemsProcessed(state.iterations() * items);
    std::filesystem::remove_all(request.checkpointDir);
}
BENCHMARK(BM_LivepointRequest)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects
 * flags it does not know, so the command line is split first —
 * --benchmark_* flags go to benchmark::Initialize, everything else to
 * the shared harness::BenchOptions parser (--emit-json, --jobs,
 * --preset, ...). With --emit-json set, one manifest per timed
 * simulator configuration is written after the benchmarks run.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> bench_args{argv[0]};
    std::vector<const char *> opt_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]).rfind("--benchmark", 0) == 0)
            bench_args.push_back(argv[i]);
        else
            opt_args.push_back(argv[i]);
    }
    const auto opts = harness::BenchOptions::parse(
        static_cast<int>(opt_args.size()), opt_args.data());

    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    // The simulator build the numbers belong to, for the baseline
    // gate (tools/perf_compare.py compares like with like).
    benchmark::AddCustomContext("sac_build_type", SAC_BUILD_TYPE);
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!opts.emitJsonDir.empty()) {
        harness::SweepRequest request;
        request.workloads = {
            {"MV-simspeed", [] { return mvTrace(); }, nullptr}};
        for (const auto &key : {"standard", "soft", "soft-prefetch"})
            request.configs.push_back(core::presets().get(key));
        request.metric = harness::amatMetric();
        request.engine = harness::EngineSelect::Exact;
        request.telemetry.manifestDir = opts.emitJsonDir;
        harness::Runner r;
        if (r.run(request).manifestFailures > 0) {
            std::cerr << "failed to write manifest under "
                      << opts.emitJsonDir << '\n';
            return 1;
        }
    }
    return 0;
}
