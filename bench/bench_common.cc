#include "bench_common.hh"

#include <cstdlib>
#include <iostream>
#include <set>
#include <utility>

#include "src/util/thread_pool.hh"

namespace sac {
namespace bench {

namespace {

harness::BenchOptions &
optionsSetting()
{
    // Benches that skip initBench() still get a sensible job count.
    static harness::BenchOptions value = [] {
        harness::BenchOptions o;
        o.jobs = util::ThreadPool::defaultThreads();
        return o;
    }();
    return value;
}

/** Cells already written this process, keyed (workload, cacheKey). */
std::set<std::pair<std::string, std::string>> &
emittedCells()
{
    static std::set<std::pair<std::string, std::string>> cells;
    return cells;
}

harness::Runner &
runner()
{
    static harness::Runner instance;
    return instance;
}

/** Run @p request on the process-wide runner with the process-wide
 *  manifest dedup; exit on I/O failure. */
harness::SweepResult
runRequest(harness::SweepRequest &request)
{
    request.telemetry.dedup = &emittedCells();
    harness::SweepResult result = runner().run(request);
    if (result.manifestFailures > 0) {
        std::cerr << "failed to write run manifest under '"
                  << options().emitJsonDir << "'\n";
        std::exit(1);
    }
    return result;
}

} // namespace

void
initBench(int argc, const char *const *argv)
{
    optionsSetting() = harness::BenchOptions::parse(argc, argv);
}

const harness::BenchOptions &
options()
{
    return optionsSetting();
}

double
amatOf(const sim::RunStats &s)
{
    return s.amat();
}

double
missRatioOf(const sim::RunStats &s)
{
    return s.missRatio();
}

double
wordsOf(const sim::RunStats &s)
{
    return s.wordsFetchedPerAccess();
}

std::vector<harness::Workload>
suiteWorkloads()
{
    return harness::paperWorkloads(options().traceSeed);
}

const trace::Trace &
benchmarkTrace(const std::string &name)
{
    const auto workloads = suiteWorkloads();
    runner().warmup(workloads, options().jobs);
    for (const auto &w : workloads) {
        if (w.name == name)
            return runner().traceOf(w);
    }
    std::cerr << "unknown benchmark '" << name << "'\n";
    std::exit(2);
}

std::vector<core::Config>
presetConfigs(const std::vector<std::string> &keys)
{
    std::vector<core::Config> out;
    out.reserve(keys.size());
    for (const auto &key : keys)
        out.push_back(core::presets().get(key));
    return out;
}

util::Table
suiteTable(const std::vector<core::Config> &configs,
           const Metric &metric, int decimals)
{
    return suiteTable(configs,
                      harness::Metric{"metric", metric, decimals});
}

util::Table
suiteTable(const std::vector<core::Config> &configs,
           const harness::Metric &m)
{
    // One SweepRequest expresses the whole bench command line;
    // Runner::run() routes, sweeps, and emits the manifests (engine
    // tags, suite totals, instrumentation).
    const auto workloads = suiteWorkloads();
    runner().warmup(workloads, options().jobs);
    harness::SweepRequest request =
        harness::SweepRequest::fromBenchOptions(options(), workloads,
                                                configs, m);
    return runRequest(request).table;
}

harness::Workload
programWorkload(std::string name,
                std::function<loopnest::Program()> build,
                std::optional<util::DiscreteDistribution> deltas)
{
    const std::uint64_t seed = options().traceSeed;
    const auto materialize = [build, deltas, seed] {
        return deltas ? workloads::makeTaggedTraceWithTiming(
                            build(), *deltas, seed)
                      : workloads::makeTaggedTrace(build(), seed);
    };
    const auto stream = [build, deltas,
                         seed](const trace::RecordSink &sink) {
        workloads::streamTaggedTrace(build(), sink, seed,
                                     deltas ? &*deltas : nullptr);
    };
    return {std::move(name), materialize, stream};
}

harness::Workload
tagVariant(const std::string &base, const std::string &tag,
           std::function<analysis::TagMutator(const trace::Trace &)>
               mutator)
{
    const trace::Trace &t = benchmarkTrace(base);
    return {base + "-" + tag,
            [&t, mutator] { return analysis::mapTags(t, mutator(t)); },
            [&t, mutator](const trace::RecordSink &sink) {
                analysis::streamTags(t, mutator(t), sink);
            },
            t.size()};
}

harness::SweepResult
exactSweep(const std::vector<harness::Workload> &workloads,
           const std::vector<core::Config> &configs)
{
    const harness::BenchOptions &o = options();
    harness::SweepRequest request;
    request.workloads = workloads;
    request.configs = configs;
    request.metric = harness::amatMetric();
    request.jobs = o.jobs;
    request.engine = harness::EngineSelect::Exact;
    request.telemetry.manifestDir = o.emitJsonDir;
    request.telemetry.intervalRecords = o.interval;
    request.telemetry.heatmap = o.heatmap;
    return runRequest(request);
}

void
printBanner(const std::string &figure, const std::string &what)
{
    std::cout << "==========================================================\n"
              << "Reproduction of " << figure
              << " — Software Assistance for Data Caches (HPCA 1995)\n"
              << what << "\n"
              << "==========================================================\n";
}

} // namespace bench
} // namespace sac
