/**
 * @file
 * Benchmark registry and the build → analyze → trace pipeline.
 */

#include "src/workloads/workloads.hh"

#include "src/loopnest/generator.hh"
#include "src/trace/timing_model.hh"
#include "src/util/logging.hh"

namespace sac {
namespace workloads {

const std::vector<Benchmark> &
paperBenchmarks()
{
    static const std::vector<Benchmark> list = {
        {"MDG", [] { return buildMdg(); }},
        {"BDN", [] { return buildBdn(); }},
        {"DYF", [] { return buildDyf(); }},
        {"TRF", [] { return buildTrf(); }},
        {"NAS", [] { return buildNas(); }},
        {"Slalom", [] { return buildSlalom(); }},
        {"LIV", [] { return buildLiv(); }},
        {"MV", [] { return buildMv(); }},
        {"SpMV", [] { return buildSpMv(); }},
    };
    return list;
}

const std::vector<Benchmark> &
kernelOnlyBenchmarks()
{
    static const std::vector<Benchmark> list = {
        {"ADM", [] { return buildKernelOnly("ADM"); }},
        {"MDG", [] { return buildKernelOnly("MDG"); }},
        {"BDN", [] { return buildKernelOnly("BDN"); }},
        {"DYF", [] { return buildKernelOnly("DYF"); }},
        {"ARC", [] { return buildKernelOnly("ARC"); }},
        {"FLO", [] { return buildKernelOnly("FLO"); }},
        {"TRF", [] { return buildKernelOnly("TRF"); }},
    };
    return list;
}

const Benchmark &
findBenchmark(const std::string &name)
{
    for (const auto &b : paperBenchmarks())
        if (b.name == name)
            return b;
    util::fatal("unknown benchmark: ", name);
}

namespace {

/**
 * The one tagging pipeline: finalize @p program, run the locality
 * analyzer, and execute the tagged program under @p timing into
 * @p out (a Trace or a RecordSink).
 */
template <typename Out>
locality::AnalysisResult
runTagged(loopnest::Program &program, trace::TimingModel timing,
          Out &out)
{
    program.finalize();
    locality::AnalysisResult result = locality::analyze(program);
    loopnest::TraceGenerator gen(program, result.tags, timing);
    gen.run(out);
    return result;
}

} // namespace

trace::Trace
makeTaggedTrace(loopnest::Program &&program, std::uint64_t seed,
                locality::AnalysisResult *analysis)
{
    trace::Trace t(program.name());
    locality::AnalysisResult result =
        runTagged(program, trace::TimingModel(seed), t);
    if (analysis)
        *analysis = std::move(result);
    return t;
}

trace::Trace
makeBenchmarkTrace(const std::string &name, std::uint64_t seed)
{
    return makeTaggedTrace(findBenchmark(name).build(), seed);
}

trace::Trace
makeTaggedTraceWithTiming(loopnest::Program &&program,
                          const util::DiscreteDistribution &deltas,
                          std::uint64_t seed)
{
    trace::Trace t(program.name());
    runTagged(program, trace::TimingModel(deltas, seed), t);
    return t;
}

void
streamTaggedTrace(loopnest::Program &&program,
                  const trace::RecordSink &sink, std::uint64_t seed,
                  const util::DiscreteDistribution *deltas)
{
    runTagged(program,
              deltas ? trace::TimingModel(*deltas, seed)
                     : trace::TimingModel(seed),
              sink);
}

void
streamBenchmarkTrace(const std::string &name,
                     const trace::RecordSink &sink, std::uint64_t seed)
{
    streamTaggedTrace(findBenchmark(name).build(), sink, seed);
}

} // namespace workloads
} // namespace sac
