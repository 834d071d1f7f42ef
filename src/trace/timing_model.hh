/**
 * @file
 * The inter-reference issue-time model of the paper (Figure 4b).
 *
 * The paper measured, with the Spa tracer, the distribution of the
 * number of cycles between two consecutive load/store instructions
 * (assuming every instruction executes in one cycle), then sampled a
 * delta from that distribution for each trace entry at generation
 * time. This class reproduces that scheme with the figure's
 * approximate masses over the buckets {1,2,3,4,5,10,15,20,>20}.
 */

#ifndef SAC_TRACE_TIMING_MODEL_HH
#define SAC_TRACE_TIMING_MODEL_HH

#include <cstdint>
#include <vector>

#include "src/util/distribution.hh"
#include "src/util/logging.hh"
#include "src/util/rng.hh"

namespace sac {
namespace trace {

/**
 * Samples issue-time deltas between consecutive references. The
 * default distribution follows Figure 4b; a custom distribution can be
 * supplied for sensitivity studies.
 */
class TimingModel
{
  public:
    /** Build the Figure-4b model seeded for reproducibility. */
    explicit TimingModel(std::uint64_t seed = 0xf19b4ull);

    /** Build from a custom delta distribution. */
    TimingModel(util::DiscreteDistribution dist, std::uint64_t seed);

    /** Sample the delta (>= 1 cycle) for the next trace entry. */
    std::uint16_t
    sampleDelta()
    {
        const std::uint16_t d = deltas_[dist_.sampleIndex(rng_)];
        SAC_ASSERT(d != 0, "delta out of range");
        return d;
    }

    /** The Figure-4b empirical distribution of issue-time deltas. */
    static util::DiscreteDistribution figure4bDistribution();

    /** Mean issue interval of the underlying distribution. */
    double meanDelta() const { return dist_.mean(); }

    /** Access the distribution (for the Fig-4b bench printout). */
    const util::DiscreteDistribution &distribution() const
    {
        return dist_;
    }

  private:
    util::DiscreteDistribution dist_;
    /** Outcome values as deltas; 0 marks one outside [1, 0xffff]. */
    std::vector<std::uint16_t> deltas_;
    util::Rng rng_;
};

} // namespace trace
} // namespace sac

#endif // SAC_TRACE_TIMING_MODEL_HH
