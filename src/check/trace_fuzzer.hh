/**
 * @file
 * Differential trace fuzzer: a seeded generator of adversarial traces
 * and configurations, replayed through both the timing simulator
 * (core::SoftwareAssistedCache, with a check::Auditor attached) and
 * the naive oracle (sim::ReferenceModel), diffing every functional
 * counter.
 *
 * Trace shapes target the mechanisms most likely to disagree:
 * set-aliasing address ladders (conflict and bounce-back pressure),
 * virtual-line boundary straddles (coherence-check edge cases),
 * write bursts against aliasing dirty lines (write-buffer pressure),
 * random scatter, and hot temporal sets — optionally post-processed
 * with analysis::corruptTags to model mis-analyzed references.
 * Configurations are drawn from the core::Config flag lattice
 * restricted to what sim::ReferenceModel::supports().
 *
 * Everything is derived deterministically from one 64-bit case seed,
 * so a failure reproduces from the seed alone (see tools/fuzz_replay,
 * built from examples/fuzz_replay.cpp).
 */

#ifndef SAC_CHECK_TRACE_FUZZER_HH
#define SAC_CHECK_TRACE_FUZZER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "src/core/config.hh"
#include "src/sim/reference_model.hh"
#include "src/trace/trace.hh"
#include "src/util/rng.hh"

namespace sac {
namespace check {

/** One fuzz case: an adversarial (config, trace) pair plus its seed. */
struct FuzzCase
{
    std::uint64_t seed = 0; //!< fully reproduces config and trace
    core::Config config;
    trace::Trace trace;
};

/** Outcome of replaying one case through simulator and oracle. */
struct CaseOutcome
{
    bool diverged = false;
    std::string divergence; //!< describeDivergence() report
    bool outcomesDiverged = false; //!< whole-trace replay vs run()
    std::string outcomesDivergence;
    std::uint64_t auditViolations = 0;
    std::string firstAuditViolation;
    sim::ReferenceCounts expected; //!< oracle counters
    sim::ReferenceCounts got;      //!< simulator counters

    bool ok() const
    {
        return !diverged && !outcomesDiverged && auditViolations == 0;
    }
};

/**
 * Test-only fault-injection hook: perturbs the simulator-side
 * counters before the diff, letting tests prove the fuzzer catches,
 * shrinks and replays a real divergence.
 */
using CountsCorruption =
    std::function<void(const trace::Trace &, sim::ReferenceCounts &)>;

/**
 * Replay @p t under @p cfg through both models and diff the counters.
 * The simulator side runs twice: once through run(), which classifies
 * chunk by chunk beside the simulator, with a Record-mode Auditor
 * attached; once without observers, as one replay() of the whole
 * trace on the outcomes of a separate whole-trace
 * sim::shadowClassifierOf() pass. The two full RunStats must be
 * identical (observers and chunking change no counter);
 * outcomesDiverged reports any mismatch.
 * The first replay's counters are diffed against the oracle and the
 * auditor's violations are reported in the outcome. @p cfg must
 * satisfy sim::ReferenceModel::supports().
 */
CaseOutcome runCase(const trace::Trace &t, const core::Config &cfg,
                    const CountsCorruption &corrupt = {});

/** Convenience overload for a generated case. */
CaseOutcome runCase(const FuzzCase &c,
                    const CountsCorruption &corrupt = {});

/** Deterministic generator of adversarial fuzz cases. */
class TraceFuzzer
{
  public:
    /** Seed of the fixed CI budget; chosen once, never rotated. */
    static constexpr std::uint64_t defaultMasterSeed = 0x5acf0022;

    explicit TraceFuzzer(std::uint64_t master_seed = defaultMasterSeed)
        : masterSeed_(master_seed)
    {
    }

    std::uint64_t masterSeed() const { return masterSeed_; }

    /** Case seed of sweep index @p index (splitmix64 of the master). */
    std::uint64_t caseSeed(std::uint64_t index) const;

    /** Generate the case at sweep index @p index. */
    FuzzCase makeCase(std::uint64_t index) const
    {
        return caseFromSeed(caseSeed(index));
    }

    /** Rebuild a case from its seed alone (replay entry point). */
    static FuzzCase caseFromSeed(std::uint64_t case_seed);

    /** Draw an oracle-supported configuration from the flag lattice. */
    static core::Config fuzzConfig(util::Rng &rng);

    /** Draw an adversarial trace shaped for @p cfg. */
    static trace::Trace fuzzTrace(util::Rng &rng,
                                  const core::Config &cfg);

  private:
    std::uint64_t masterSeed_;
};

} // namespace check
} // namespace sac

#endif // SAC_CHECK_TRACE_FUZZER_HH
