/**
 * @file
 * Trace generation from a loop nest: each finalized Program is
 * lowered once into a flat trace plan, and an executor runs the plan
 * to emit the memory-reference trace, attaching the software tags
 * computed by the locality analyzer and an issue-time delta sampled
 * from the timing model — the reproduction of the paper's
 * instrumented trace extraction (Section 3.1). DESIGN.md section 17
 * describes the plan's ops, where subscript checks run and the order
 * of the delta draws.
 */

#ifndef SAC_LOOPNEST_GENERATOR_HH
#define SAC_LOOPNEST_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/loopnest/program.hh"
#include "src/trace/timing_model.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"

namespace sac {
namespace loopnest {

/** The software tags of one static reference. */
struct Tags
{
    bool temporal = false;
    bool spatial = false;
    /**
     * Spatial level for the variable-virtual-line extension: the
     * virtual line spans 2^spatialLevel physical lines (0 when the
     * reference is not spatial).
     */
    std::uint8_t spatialLevel = 0;

    bool operator==(const Tags &) const = default;
};

/** Tags for every static reference, indexed by RefId. */
using TagVector = std::vector<Tags>;

/**
 * Executes a Program, emitting one trace Record per dynamic array
 * reference (including indirect-subscript and indirect-bound loads).
 * The constructor lowers the program into its plan; every run()
 * executes that plan.
 */
class TraceGenerator
{
  public:
    /**
     * @param program finalized program to execute
     * @param tags per-reference software tags (size == refCount());
     *        pass an all-false vector for untagged tracing
     * @param timing issue-time delta sampler
     */
    TraceGenerator(const Program &program, const TagVector &tags,
                   trace::TimingModel &timing);
    ~TraceGenerator();

    /**
     * Run the program and append its references to @p out.
     * @param out destination trace (name is set to the program name)
     * @param max_records safety cap; generation panics beyond it
     */
    void run(trace::Trace &out,
             std::uint64_t max_records = defaultMaxRecords);

    /**
     * Run the program, emitting each reference into @p sink as it is
     * produced — the streaming entry: nothing is materialized here,
     * so trace length does not bound memory.
     */
    void run(const trace::RecordSink &sink,
             std::uint64_t max_records = defaultMaxRecords);

    /** Default record-count safety cap. */
    static constexpr std::uint64_t defaultMaxRecords = 200'000'000;

    /** The lowered program (defined in generator.cc). */
    struct Plan;

  private:
    const Program &program_;
    std::unique_ptr<const Plan> plan_;
    trace::TimingModel &timing_;
};

/**
 * Convenience: analyze-free generation with all tags cleared (a
 * "standard" trace with no software assistance).
 */
trace::Trace generateUntagged(const Program &program,
                              trace::TimingModel &timing);

} // namespace loopnest
} // namespace sac

#endif // SAC_LOOPNEST_GENERATOR_HH
