/**
 * @file
 * The benchmark suite: loop-nest programs standing in for the paper's
 * workloads (Section 3.1), plus the blocking / copying kernels of
 * Section 4. Each builder returns an un-finalized Program; the
 * makeTaggedTrace() pipeline finalizes it, runs the locality analyzer
 * and executes it into a trace.
 *
 * Benchmark substitutions (the Perfect Club sources, Sage++ and Spa
 * are unavailable) are documented in DESIGN.md; the proxies reproduce
 * the properties the paper reports for each code: working-set size,
 * tag fractions, CALL-poisoned loops, stride behavior and the shape
 * of the temporal reuse.
 */

#ifndef SAC_WORKLOADS_WORKLOADS_HH
#define SAC_WORKLOADS_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/locality/analyzer.hh"
#include "src/loopnest/program.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"
#include "src/util/distribution.hh"

namespace sac {
namespace workloads {

/** Scale factor applied to benchmark problem sizes (1 = default). */
struct Scale
{
    double factor = 1.0;

    /** Apply the factor to a nominal size, keeping it >= floor. */
    std::int64_t
    apply(std::int64_t nominal, std::int64_t floor_value = 4) const
    {
        const auto scaled =
            static_cast<std::int64_t>(nominal * factor);
        return scaled < floor_value ? floor_value : scaled;
    }
};

// --- Numerical primitives (paper Sections 2.2, 4.1) ---------------

/** Dense matrix-vector multiply, the paper's Section 2.2 loop. */
loopnest::Program buildMv(std::int64_t n = 500);

/**
 * Sparse matrix-vector multiply in compressed-column form, the
 * paper's Section 4.1 loop; X is tagged temporal by user directive.
 *
 * @param n number of columns (and length of X)
 * @param avg_nnz average non-zeros per column (paper: 10-80 in 3-D)
 * @param seed RNG seed for the sparsity pattern
 */
loopnest::Program buildSpMv(std::int64_t n = 1200,
                            std::int64_t avg_nnz = 20,
                            std::uint64_t seed = 0x5135ull);

/**
 * Blocked matrix-vector multiply (Section 4.2, Figure 11a).
 * @param n matrix order
 * @param block block size over the reused vector X
 */
loopnest::Program buildBlockedMv(std::int64_t n, std::int64_t block);

/**
 * Blocked matrix-matrix multiply with optional data copying
 * (Section 4.3, Figure 11b).
 *
 * @param n loop extent (logical matrix order)
 * @param leading_dim allocated leading dimension (>= n)
 * @param block k-block size
 * @param copying copy the A block to a contiguous local array
 */
loopnest::Program buildCopiedMm(std::int64_t n,
                                std::int64_t leading_dim,
                                std::int64_t block, bool copying);

// --- Suite benchmarks ----------------------------------------------

/** Livermore-loop kernel suite stand-in (LIV). */
loopnest::Program buildLiv(Scale scale = {});

/** NAS stand-in: conjugate-gradient-style iteration. */
loopnest::Program buildNas(Scale scale = {});

/** Slalom stand-in: dense LU-style factorization (jki form). */
loopnest::Program buildSlalom(Scale scale = {});

/** MDG proxy: molecular-dynamics pair interactions (Perfect Club). */
loopnest::Program buildMdg(Scale scale = {});

/** BDN proxy: banded-solver sweeps (Perfect Club). */
loopnest::Program buildBdn(Scale scale = {});

/** DYF proxy: time-stepped 2-D stencil with cyclic reuse. */
loopnest::Program buildDyf(Scale scale = {});

/** TRF proxy: transform with transpose-order sweeps. */
loopnest::Program buildTrf(Scale scale = {});

/** ADM proxy: small 3-D stencil with CALL-poisoned physics. */
loopnest::Program buildAdm(Scale scale = {});

/** ARC proxy: FFT-like butterfly sweeps. */
loopnest::Program buildArc(Scale scale = {});

/** FLO proxy: flow-solver face sweeps with indirect gathers. */
loopnest::Program buildFlo(Scale scale = {});

/**
 * Kernel-only variant of a Perfect Club proxy (Figure 10a): the most
 * time-consuming computational loops traced alone, fully
 * instrumentable (no CALL poisoning, no outside-loop references).
 * Supported names: ADM, MDG, BDN, DYF, ARC, FLO, TRF.
 */
loopnest::Program buildKernelOnly(const std::string &name,
                                  Scale scale = {});

// --- Registry and pipeline -----------------------------------------

/** A named benchmark builder. */
struct Benchmark
{
    std::string name;
    std::function<loopnest::Program()> build;
};

/**
 * The nine benchmarks of the paper's main evaluation, in figure
 * order: MDG, BDN, DYF, TRF, NAS, Slalom, LIV, MV, SpMV.
 */
const std::vector<Benchmark> &paperBenchmarks();

/** The seven kernel-only subroutines of Figure 10a. */
const std::vector<Benchmark> &kernelOnlyBenchmarks();

/** Look up a benchmark builder by name (fatal on unknown names). */
const Benchmark &findBenchmark(const std::string &name);

/**
 * Full tagging pipeline: finalize @p program, run the locality
 * analyzer, and execute it with the Figure-4b timing model.
 *
 * @param program freshly built (un-finalized) program; consumed
 * @param seed timing-model seed (traces are deterministic per seed)
 * @param analysis optional out-parameter for the analysis result
 */
trace::Trace makeTaggedTrace(loopnest::Program &&program,
                             std::uint64_t seed = 0x7ac3ull,
                             locality::AnalysisResult *analysis =
                                 nullptr);

/** Build + tag + trace a registered benchmark by name. */
trace::Trace makeBenchmarkTrace(const std::string &name,
                                std::uint64_t seed = 0x7ac3ull);

/**
 * Pipeline variant with a custom issue-time distribution, for
 * issue-rate sensitivity studies (the paper: "a cache design is
 * sensitive to the processor request issue rate").
 */
trace::Trace makeTaggedTraceWithTiming(
    loopnest::Program &&program,
    const util::DiscreteDistribution &deltas,
    std::uint64_t seed = 0x7ac3ull);

/**
 * Streaming variant of makeTaggedTrace() (of
 * makeTaggedTraceWithTiming() when @p deltas is given): finalize,
 * analyze, then emit each record into @p sink as it is generated —
 * the trace is never materialized, so memory stays bounded for any
 * length. The records equal the materialized variant's.
 */
void streamTaggedTrace(loopnest::Program &&program,
                       const trace::RecordSink &sink,
                       std::uint64_t seed = 0x7ac3ull,
                       const util::DiscreteDistribution *deltas =
                           nullptr);

/** Streaming variant of makeBenchmarkTrace(). */
void streamBenchmarkTrace(const std::string &name,
                          const trace::RecordSink &sink,
                          std::uint64_t seed = 0x7ac3ull);

} // namespace workloads
} // namespace sac

#endif // SAC_WORKLOADS_WORKLOADS_HH
