#include "src/analysis/tag_transform.hh"

#include <unordered_map>
#include <utility>

#include "src/util/logging.hh"
#include "src/util/rng.hh"

namespace sac {
namespace analysis {

TagMutator
stripTags(bool temporal, bool spatial)
{
    return [temporal, spatial](trace::Record &r) {
        r.temporal = r.temporal && !temporal;
        r.spatial = r.spatial && !spatial;
        r.spatialLevel = spatial ? 0 : r.spatialLevel;
    };
}

TagMutator
flipTags(double fraction, std::uint64_t seed)
{
    SAC_ASSERT(fraction >= 0.0 && fraction <= 1.0,
               "flip fraction must be in [0, 1]");
    return [fraction, rng = util::Rng(seed),
            flip = std::unordered_map<RefId, bool>()](
               trace::Record &r) mutable {
        auto it = flip.find(r.ref);
        if (it == flip.end())
            it = flip.emplace(r.ref, rng.nextBool(fraction)).first;
        if (!it->second)
            return;
        r.temporal = !r.temporal;
        r.spatial = !r.spatial;
        r.spatialLevel = r.spatial ? 1 : 0;
    };
}

TagMutator
retag(loopnest::TagVector tags)
{
    return [tags = std::move(tags)](trace::Record &r) {
        r.temporal = tags[r.ref].temporal;
        r.spatial = tags[r.ref].spatial;
        r.spatialLevel = tags[r.ref].spatialLevel;
    };
}

trace::Trace
mapTags(const trace::Trace &t, TagMutator mutate)
{
    trace::Trace out(t.name());
    out.reserve(t.size());
    streamTags(t, std::move(mutate),
               [&out](const trace::Record &r) { out.push(r); });
    return out;
}

void
streamTags(const trace::Trace &t, TagMutator mutate,
           const trace::RecordSink &sink)
{
    for (const auto &r : t) {
        trace::Record copy = r;
        mutate(copy);
        sink(copy);
    }
}

trace::Trace
stripAllTags(const trace::Trace &t)
{
    return mapTags(t, stripTags(true, true));
}

trace::Trace
stripTemporalTags(const trace::Trace &t)
{
    return mapTags(t, stripTags(true, false));
}

trace::Trace
stripSpatialTags(const trace::Trace &t)
{
    return mapTags(t, stripTags(false, true));
}

trace::Trace
corruptTags(const trace::Trace &t, double flip_fraction,
            std::uint64_t seed)
{
    return mapTags(t, flipTags(flip_fraction, seed));
}

} // namespace analysis
} // namespace sac
