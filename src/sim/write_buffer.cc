#include "src/sim/write_buffer.hh"

#include "src/util/logging.hh"

namespace sac {
namespace sim {

WriteBuffer::WriteBuffer(std::uint32_t capacity) : capacity_(capacity)
{
    SAC_ASSERT(capacity > 0 && capacity <= 64,
               "write buffer capacity must be in [1, 64]");
}

WriteBuffer::Snapshot
WriteBuffer::snapshot() const
{
    Snapshot s;
    s.pendingBytes.reserve(occupancy_);
    for (std::uint32_t i = 0; i < occupancy_; ++i)
        s.pendingBytes.push_back(pendingBytes_[(head_ + i) % capacity_]);
    s.totalBytesPushed = totalBytes_;
    s.fullStalls = fullStalls_;
    return s;
}

void
WriteBuffer::restore(const Snapshot &s)
{
    SAC_ASSERT(s.pendingBytes.size() <= capacity_,
               "write buffer snapshot exceeds capacity");
    head_ = 0;
    occupancy_ = static_cast<std::uint32_t>(s.pendingBytes.size());
    for (std::uint32_t i = 0; i < occupancy_; ++i)
        pendingBytes_[i] = s.pendingBytes[i];
    totalBytes_ = s.totalBytesPushed;
    fullStalls_ = s.fullStalls;
}

std::uint64_t
WriteBuffer::drainAll()
{
    std::uint64_t total = 0;
    while (!empty())
        total += pop();
    return total;
}

} // namespace sim
} // namespace sac
