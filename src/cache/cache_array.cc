#include "src/cache/cache_array.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace sac {
namespace cache {

namespace {

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

std::uint32_t
log2u(std::uint64_t x)
{
    std::uint32_t n = 0;
    while ((1ull << n) < x)
        ++n;
    return n;
}

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, std::uint32_t line_bytes,
                       std::uint32_t assoc)
    : lineBytes_(line_bytes), assoc_(assoc)
{
    SAC_ASSERT(isPowerOfTwo(line_bytes), "line size must be a power of 2");
    SAC_ASSERT(assoc >= 1, "associativity must be at least 1");
    SAC_ASSERT(size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                             assoc) == 0,
               "capacity must be a multiple of line size * assoc");
    lineShift_ = log2u(line_bytes);
    const std::uint64_t sets =
        size_bytes / (static_cast<std::uint64_t>(line_bytes) * assoc);
    SAC_ASSERT(isPowerOfTwo(sets), "set count must be a power of 2");
    sets_ = static_cast<std::uint32_t>(sets);
    const std::size_t n = static_cast<std::size_t>(sets_) * assoc_;
    tags_.assign(n, invalidTag);
    flags_.assign(n, 0);
    stamps_.assign(n, 0);
}

std::uint64_t
CacheArray::sizeBytes() const
{
    return static_cast<std::uint64_t>(sets_) * assoc_ * lineBytes_;
}

std::optional<LineState>
CacheArray::invalidate(Addr line_addr)
{
    auto l = find(line_addr);
    if (!l)
        return std::nullopt;
    const LineState old = l->state();
    l->clear();
    return old;
}

void
CacheArray::reset()
{
    std::fill(tags_.begin(), tags_.end(), invalidTag);
    std::fill(flags_.begin(), flags_.end(), 0);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stampCounter_ = 0;
    prefetchedCount_ = 0;
}

std::vector<LineState>
CacheArray::snapshotLines() const
{
    const std::size_t n = static_cast<std::size_t>(sets_) * assoc_;
    std::vector<LineState> lines;
    lines.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        lines.push_back(stateAt(i));
    return lines;
}

void
CacheArray::restoreLines(const std::vector<LineState> &lines,
                         std::uint64_t lru_clock)
{
    const std::size_t n = static_cast<std::size_t>(sets_) * assoc_;
    SAC_ASSERT(lines.size() == n,
               "restoreLines snapshot shape does not match the array");
    // assignAt funnels through setPrefetched so prefetchedCount_
    // tracks the restored flags incrementally.
    for (std::size_t i = 0; i < n; ++i)
        assignAt(i, lines[i]);
    stampCounter_ = lru_clock;
}

std::uint32_t
CacheArray::validCount() const
{
    std::uint32_t n = 0;
    for (const auto f : flags_)
        n += (f & kValid) ? 1 : 0;
    return n;
}

} // namespace cache
} // namespace sac
