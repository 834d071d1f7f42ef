/**
 * @file
 * Structural invariant auditor for the software-assisted cache. A
 * check::Auditor attached to a core::SoftwareAssistedCache re-derives,
 * after every access, the invariants the simulator must preserve by
 * construction (Section 3.2's safety claim: software tags steer
 * performance, never correctness):
 *
 *  - no physical line resident in both the main and the bounce-back
 *    (aux) cache at once;
 *  - per-set consistency of the LRU state: every valid line maps to
 *    the set it sits in, no set holds the same line twice, and valid
 *    lines in a set carry distinct LRU stamps;
 *  - temporal-bit lifecycle: no temporal (or prefetched) bits when the
 *    configuration has the mechanism disabled;
 *  - write-buffer occupancy never exceeds its capacity;
 *  - traffic conservation: bytes_fetched equals the sum of fill sizes,
 *    and writeback bytes are whole lines when nothing bypasses;
 *  - counter sanity: accesses partition exactly into main/aux hits,
 *    misses and bypasses; miss classes partition misses; the access
 *    counter and completion cycle are monotone.
 *
 * Violations are counted in a telemetry::CounterRegistry group
 * ("audit.violation.<kind>") and either abort with a panic carrying
 * the offending cycle and address (OnViolation::Panic, the default)
 * or are recorded for inspection (OnViolation::Record, used by the
 * fuzzer and by tests).
 *
 * The per-access hook runs in every build: attaching an auditor
 * switches the simulator to its Observed access path, and detaching
 * it switches back to the hook-free Detailed path.
 */

#ifndef SAC_CHECK_AUDITOR_HH
#define SAC_CHECK_AUDITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/run_stats.hh"
#include "src/telemetry/counter_registry.hh"

namespace sac {
namespace check {

/** One detected invariant violation. */
struct Violation
{
    std::string kind;    //!< counter suffix, e.g. "duplicate_line"
    std::string message; //!< human-readable description
    Cycle cycle = 0;     //!< issue clock when detected
    Addr addr = 0;       //!< offending (line) address when known
};

/** Post-access structural invariant checker (one per simulator). */
class Auditor : public core::AccessAuditor
{
  public:
    /** What to do when an invariant does not hold. */
    enum class OnViolation { Panic, Record };

    explicit Auditor(OnViolation mode = OnViolation::Panic);

    /** Per-access hook invoked by the simulator. */
    void afterAccess(const core::SoftwareAssistedCache &cache,
                     const trace::Record &rec) override;

    /** Run every structural check once against @p cache. */
    void auditNow(const core::SoftwareAssistedCache &cache);

    /**
     * Structural audit of a (main, aux) array pair under @p cfg.
     * Exposed so tests can audit deliberately corrupted arrays
     * directly. @p aux may be nullptr.
     */
    void auditArrays(const cache::CacheArray &main,
                     const cache::CacheArray *aux,
                     const core::Config &cfg, Cycle cycle);

    /** Counter-partition and traffic-conservation audit of @p stats. */
    void auditStats(const sim::RunStats &stats, const core::Config &cfg,
                    Cycle cycle);

    /** Violations recorded so far (OnViolation::Record only). */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /** Total violations across all kinds. */
    std::uint64_t violationCount() const
    {
        return counters_.total("audit.violation");
    }

    /** Accesses audited through afterAccess(). */
    std::uint64_t accessesAudited() const { return audited_; }

    /** Per-kind violation counters ("audit.violation.<kind>"). */
    const telemetry::CounterRegistry &counters() const
    {
        return counters_;
    }

  private:
    void report(const char *kind, Cycle cycle, Addr addr,
                const std::string &message);

    OnViolation mode_;
    telemetry::CounterRegistry counters_;
    std::vector<Violation> violations_;
    std::uint64_t audited_ = 0;

    // Monotonicity state, valid for the one simulator this auditor is
    // attached to.
    std::uint64_t lastAccesses_ = 0;
    Cycle lastCompletion_ = 0;
    Cycle lastBusFree_ = 0;
};

/**
 * Bit-for-bit architectural state comparison of two simulators, the
 * proof obligation of the functional-warming mode: a warming replay
 * and a detailed replay of the same prefix must be indistinguishable
 * in every piece of state that can influence future behavior — cache
 * arrays (addresses, valid/dirty/temporal/prefetched bits, LRU
 * stamps), write-buffer occupancy and history, the clocks, the bypass
 * buffer and the in-flight prefetch.
 *
 * @return empty string when identical, else a description of the
 *         first difference found (for test failure messages)
 */
std::string stateDifference(const core::SoftwareAssistedCache &a,
                            const core::SoftwareAssistedCache &b);

/** Convenience wrapper: is every architectural state bit equal? */
inline bool
structurallyIdentical(const core::SoftwareAssistedCache &a,
                      const core::SoftwareAssistedCache &b)
{
    return stateDifference(a, b).empty();
}

} // namespace check
} // namespace sac

#endif // SAC_CHECK_AUDITOR_HH
