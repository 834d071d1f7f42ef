/**
 * @file
 * The memory-reference trace entry produced by the instrumented
 * workloads and consumed by the cache simulators and profilers.
 *
 * An entry mirrors the paper's source-level trace call
 * `trace(reference, read/write, temporal, spatial)` (Figure 5) plus the
 * issue-time delta sampled from the Figure-4b distribution at trace
 * *generation* time, so that repeated simulations of the same trace are
 * identical.
 */

#ifndef SAC_TRACE_RECORD_HH
#define SAC_TRACE_RECORD_HH

#include <cstdint>

#include "src/util/types.hh"

namespace sac {
namespace trace {

/** Kind of memory access. */
enum class AccessType : std::uint8_t { Read = 1, Write = 2 };

/**
 * One traced memory reference, 16 bytes: the access size, the access
 * type and the two software tags share one bit-field byte. Aggregate
 * initialization must be direct-list (`push(Record{.addr = a})`):
 * GCC 12 rejects copy-list-init (`push({.addr = a})`) of a struct
 * whose scoped-enum bit-field has a default member initializer.
 */
struct Record
{
    /** Byte address of the referenced datum. */
    Addr addr = 0;
    /** Static reference (load/store instruction) identifier. */
    RefId ref = invalidRefId;
    /** Cycles elapsed since the previous reference was issued. */
    std::uint16_t delta = 1;
    /** Access size in bytes (8 for double-precision data), at most
        15; readTrace() rejects a file that holds a larger one. */
    std::uint8_t size : 4 = elementBytes;
    /** Read or write. */
    AccessType type : 2 = AccessType::Read;
    /** Software tag: reference exhibits temporal locality. */
    bool temporal : 1 = false;
    /** Software tag: reference exhibits spatial locality. */
    bool spatial : 1 = false;
    /**
     * Spatial-locality level for the variable-virtual-line extension
     * (paper Section 3.2): the virtual line spans 2^level physical
     * lines. 0 when the reference is not spatial; plain spatial
     * references carry level 1.
     */
    std::uint8_t spatialLevel = 0;

    bool isRead() const { return type == AccessType::Read; }
    bool isWrite() const { return type == AccessType::Write; }

    bool
    operator==(const Record &o) const
    {
        return addr == o.addr && ref == o.ref && delta == o.delta &&
               size == o.size && type == o.type &&
               temporal == o.temporal && spatial == o.spatial &&
               spatialLevel == o.spatialLevel;
    }
};

/** Largest access size a Record holds (its 4-bit size field). */
inline constexpr unsigned maxRecordSize = 15;

static_assert(sizeof(Record) == 16, "trace::Record must stay 16 bytes");

} // namespace trace
} // namespace sac

#endif // SAC_TRACE_RECORD_HH
