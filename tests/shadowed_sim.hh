/**
 * @file
 * A simulator stepped the way a standalone caller runs it. The
 * simulators own no miss classifier, so Shadowed pairs one with a
 * shadow classifier of its geometry (sim::shadowClassifierOf) that
 * classifies each batch of records just before the simulator replays
 * it on their outcomes: the record-at-a-time tests keep their
 * access() calls and every miss-class count they assert.
 *
 * The shadow sees every record this helper steps, warming-mode ones
 * included, so a test that warms through the helper and then counts
 * classifies differently from the sampled engines (which feed their
 * shadow detailed records only).
 */

#ifndef SAC_TESTS_SHADOWED_SIM_HH
#define SAC_TESTS_SHADOWED_SIM_HH

#include <cstddef>
#include <vector>

#include "src/core/column_assoc.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/miss_classifier.hh"
#include "src/trace/record.hh"

namespace sac {
namespace test {

/**
 * @p Sim (core::SoftwareAssistedCache or core::ColumnAssocCache) with
 * the shadow classifier of its configuration beside it.
 */
template <class Sim>
class Shadowed : public Sim
{
  public:
    template <class Cfg>
    explicit Shadowed(const Cfg &cfg)
        : Sim(cfg), shadow_(sim::shadowClassifierOf(cfg))
    {
    }

    /** Simulate one reference (issue order) at the current fidelity. */
    void access(const trace::Record &rec) { replay(&rec, 1); }

    /** Classify @p n records, then replay them on their outcomes. */
    void replay(const trace::Record *recs, std::size_t n)
    {
        Sim::replay(recs, n, classify(recs, n));
    }

    /** Classify @p n records, then replay them as a detailed window. */
    void runDetailed(const trace::Record *recs, std::size_t n)
    {
        Sim::runDetailed(recs, n, classify(recs, n));
    }

  private:
    const sim::ShadowOutcome *classify(const trace::Record *recs,
                                       std::size_t n)
    {
        outcomes_.resize(n);
        shadow_.classify(recs, n, outcomes_.data());
        return outcomes_.data();
    }

    sim::MissClassifier shadow_;
    std::vector<sim::ShadowOutcome> outcomes_;
};

using ShadowedCache = Shadowed<core::SoftwareAssistedCache>;
using ShadowedColumnAssoc = Shadowed<core::ColumnAssocCache>;

} // namespace test
} // namespace sac

#endif // SAC_TESTS_SHADOWED_SIM_HH
