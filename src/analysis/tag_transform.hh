/**
 * @file
 * Trace tag transformations: strip or corrupt the software tags of a
 * trace without touching addresses or timing. Used to study the
 * paper's safety claim ("software-assisted caches perform better
 * than standard caches in any case") when the compiler information
 * is absent or wrong.
 *
 * Each transformation is a TagMutator, a per-record rewrite in issue
 * order: mapTags() materializes the rewritten trace, and streamTags()
 * pushes the same records into a sink one at a time.
 *
 * Corruption operates per *static* reference (RefId): a mis-analyzed
 * instruction is wrong on every dynamic instance, which is how real
 * compiler errors behave.
 */

#ifndef SAC_ANALYSIS_TAG_TRANSFORM_HH
#define SAC_ANALYSIS_TAG_TRANSFORM_HH

#include <cstdint>
#include <functional>

#include "src/loopnest/generator.hh"
#include "src/trace/trace.hh"
#include "src/trace/trace_source.hh"

namespace sac {
namespace analysis {

/**
 * The tag rewrite of one pass over a trace. A flip mutator draws its
 * choices in the first-seen order of the static references, so each
 * pass needs a fresh mutator (an unused copy is one).
 */
using TagMutator = std::function<void(trace::Record &)>;

/** Clear the temporal and/or the spatial tags (both: no assistance). */
TagMutator stripTags(bool temporal, bool spatial);

/**
 * Invert both tags of a random fraction of static references
 * (temporal toggled; spatial toggled with level 1 when turned on).
 *
 * @param fraction probability that a static reference's tags are
 *        inverted (0 = identity, 1 = all inverted)
 * @param seed RNG seed; the same seed flips the same references
 */
TagMutator flipTags(double fraction, std::uint64_t seed = 0xbadull);

/** Replace each record's tags with @p tags[record.ref]. */
TagMutator retag(loopnest::TagVector tags);

/** Copy of @p t with @p mutate applied to every record. */
trace::Trace mapTags(const trace::Trace &t, TagMutator mutate);

/** Push each record of @p t, rewritten by @p mutate, into @p sink. */
void streamTags(const trace::Trace &t, TagMutator mutate,
                const trace::RecordSink &sink);

/** mapTags() of stripTags(true, true): every tag cleared. */
trace::Trace stripAllTags(const trace::Trace &t);

/** mapTags() of stripTags(true, false): spatial tags kept. */
trace::Trace stripTemporalTags(const trace::Trace &t);

/** mapTags() of stripTags(false, true): temporal tags kept. */
trace::Trace stripSpatialTags(const trace::Trace &t);

/** mapTags() of flipTags(@p flip_fraction, @p seed). */
trace::Trace corruptTags(const trace::Trace &t, double flip_fraction,
                         std::uint64_t seed = 0xbadull);

} // namespace analysis
} // namespace sac

#endif // SAC_ANALYSIS_TAG_TRANSFORM_HH
