#include "src/util/rng.hh"

#include "src/util/logging.hh"

namespace sac {
namespace util {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    SAC_ASSERT(bound > 0, "nextBelow requires a positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    SAC_ASSERT(lo <= hi, "nextInRange requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next()
                                                    : nextBelow(span));
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

} // namespace util
} // namespace sac
