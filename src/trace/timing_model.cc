#include "src/trace/timing_model.hh"

namespace sac {
namespace trace {

util::DiscreteDistribution
TimingModel::figure4bDistribution()
{
    // Figure 4b: the mode is at 1-2 cycles with a long tail; roughly
    // 40% at 1 cycle, 25% at 2, and decreasing mass out to >20 cycles.
    // The ">20" bucket is represented by 25 cycles.
    return util::DiscreteDistribution({
        {1, 0.40},
        {2, 0.25},
        {3, 0.12},
        {4, 0.07},
        {5, 0.05},
        {10, 0.06},
        {15, 0.02},
        {20, 0.02},
        {25, 0.01},
    });
}

TimingModel::TimingModel(std::uint64_t seed)
    : TimingModel(figure4bDistribution(), seed)
{
}

TimingModel::TimingModel(util::DiscreteDistribution dist,
                         std::uint64_t seed)
    : dist_(std::move(dist)), rng_(seed)
{
    for (std::size_t i = 0; i < dist_.size(); ++i) {
        const std::int64_t d = dist_.value(i);
        deltas_.push_back(
            d >= 1 && d <= 0xffff ? static_cast<std::uint16_t>(d) : 0);
    }
}

} // namespace trace
} // namespace sac
