/**
 * @file
 * A bounded write buffer. Victim lines displaced by fills and
 * bounce-backs are transferred here and drained to memory over the
 * bus. The simulator drains the buffer opportunistically after each
 * demand fetch; a push into a full buffer forces a drain that costs
 * bus time on the critical path.
 */

#ifndef SAC_SIM_WRITE_BUFFER_HH
#define SAC_SIM_WRITE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "src/util/logging.hh"
#include "src/util/types.hh"

namespace sac {
namespace sim {

/**
 * Occupancy model of the write buffer. Entry contents are not needed
 * by the timing model, only counts and sizes.
 */
class WriteBuffer
{
  public:
    /** @param capacity maximum number of pending entries (> 0) */
    explicit WriteBuffer(std::uint32_t capacity);

    /** Maximum number of entries. */
    std::uint32_t capacity() const { return capacity_; }

    /** Current number of pending entries. */
    std::uint32_t occupancy() const { return occupancy_; }

    /** True when no further entry can be accepted. */
    bool full() const { return occupancy_ >= capacity_; }

    /** True when the buffer holds no entries. */
    bool empty() const { return occupancy_ == 0; }

    /**
     * Queue one writeback of @p bytes. The caller must have made room
     * (drain) beforehand; pushing into a full buffer panics.
     */
    void push(std::uint32_t bytes)
    {
        SAC_ASSERT(!full(), "push into a full write buffer");
        std::uint32_t tail = head_ + occupancy_;
        if (tail >= capacity_)
            tail -= capacity_;
        pendingBytes_[tail] = bytes;
        ++occupancy_;
        totalBytes_ += bytes;
    }

    /**
     * Remove the oldest entry, returning its size in bytes. Popping an
     * empty buffer panics.
     */
    std::uint32_t pop()
    {
        SAC_ASSERT(!empty(), "pop from an empty write buffer");
        const std::uint32_t bytes = pendingBytes_[head_];
        if (++head_ == capacity_)
            head_ = 0;
        --occupancy_;
        return bytes;
    }

    /** Drain every entry, returning the total bytes drained. */
    std::uint64_t drainAll();

    /** Total bytes ever pushed (memory write traffic). */
    std::uint64_t totalBytesPushed() const { return totalBytes_; }

    /** Number of pushes that found the buffer full beforehand. */
    std::uint64_t fullStalls() const { return fullStalls_; }

    /** Record that a push had to wait for a forced drain. */
    void noteFullStall() { ++fullStalls_; }

    /** Checkpoint image: occupancy, counters and FIFO contents. */
    struct Snapshot
    {
        /** Pending entry sizes, oldest first. */
        std::vector<std::uint32_t> pendingBytes;
        std::uint64_t totalBytesPushed = 0;
        std::uint64_t fullStalls = 0;
    };

    /** Capture the buffer's architectural state. */
    Snapshot snapshot() const;

    /**
     * Restore a snapshot taken on a buffer of the same capacity. The
     * ring head is normalized to 0; only FIFO order is architectural.
     */
    void restore(const Snapshot &s);

  private:
    std::uint32_t capacity_;
    std::uint32_t occupancy_ = 0;
    std::uint32_t pendingBytes_[64] = {};
    std::uint32_t head_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t fullStalls_ = 0;
};

} // namespace sim
} // namespace sac

#endif // SAC_SIM_WRITE_BUFFER_HH
