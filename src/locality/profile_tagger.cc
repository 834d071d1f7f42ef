#include "src/locality/profile_tagger.hh"

#include <cstdlib>
#include <unordered_map>

#include "src/analysis/tag_transform.hh"
#include "src/util/logging.hh"

namespace sac {
namespace locality {

namespace {

/** Live stream state of one static reference. */
struct StreamState
{
    Addr minAddr = 0;
    Addr maxAddr = 0;
    Addr lastAddr = 0;
    bool live = false;
};

std::uint8_t
levelOfSpan(double span_bytes)
{
    if (span_bytes >= 256.0)
        return 3;
    if (span_bytes >= 128.0)
        return 2;
    return 1;
}

} // namespace

ProfileResult
profileTags(const trace::Trace &t, const ProfileTaggerParams &params)
{
    // Find the static reference count.
    RefId max_ref = 0;
    for (const auto &r : t)
        max_ref = std::max(max_ref, r.ref);
    const std::size_t ref_count = t.empty() ? 0 : max_ref + 1;

    ProfileResult result;
    result.profiles.assign(ref_count, RefProfile{});
    result.tags.assign(ref_count, loopnest::Tags{});
    if (t.empty())
        return result;

    // Pass: per-datum last touch (index + owning reference) for
    // temporal profiling, and per-reference stride/stream state for
    // spatial profiling.
    struct LastTouch
    {
        std::uint64_t index;
        RefId ref;
    };
    std::unordered_map<Addr, LastTouch> last_touch;
    last_touch.reserve(1 << 16);
    std::vector<StreamState> streams(ref_count);

    auto close_stream = [&](RefId ref, StreamState &s) {
        if (!s.live)
            return;
        result.profiles[ref].streamSpanSum += static_cast<double>(
            s.maxAddr - s.minAddr + elementBytes);
        ++result.profiles[ref].streams;
        s.live = false;
    };

    for (std::uint64_t i = 0; i < t.size(); ++i) {
        const auto &r = t[i];
        RefProfile &p = result.profiles[r.ref];
        ++p.accesses;

        // Temporal: credit the *previous* toucher of this datum when
        // we arrive within the exploitable window.
        const Addr datum = r.addr / elementBytes;
        const auto it = last_touch.find(datum);
        if (it != last_touch.end()) {
            if (i - it->second.index <= params.maxReuseDistance)
                ++result.profiles[it->second.ref].reusedSoon;
            it->second = {i, r.ref};
        } else {
            last_touch.emplace(datum, LastTouch{i, r.ref});
        }

        // Spatial: consecutive-access strides of this reference.
        StreamState &s = streams[r.ref];
        if (s.live) {
            ++p.pairs;
            const std::uint64_t stride = static_cast<std::uint64_t>(
                std::llabs(static_cast<std::int64_t>(r.addr) -
                           static_cast<std::int64_t>(s.lastAddr)));
            if (stride <= params.maxStrideBytes) {
                ++p.spatialPairs;
                s.minAddr = std::min(s.minAddr, r.addr);
                s.maxAddr = std::max(s.maxAddr, r.addr);
            } else {
                close_stream(r.ref, s);
            }
        }
        if (!s.live) {
            s.live = true;
            s.minAddr = s.maxAddr = r.addr;
        }
        s.lastAddr = r.addr;
    }
    for (RefId ref = 0; ref < streams.size(); ++ref)
        close_stream(ref, streams[ref]);

    // Decide the tags.
    for (std::size_t ref = 0; ref < ref_count; ++ref) {
        const RefProfile &p = result.profiles[ref];
        if (p.accesses == 0)
            continue;
        loopnest::Tags tag;
        tag.temporal = p.reuseFraction() >= params.minReuseFraction;
        tag.spatial = p.pairs > 0 &&
                      p.strideFraction() >= params.minStrideFraction;
        tag.spatialLevel =
            tag.spatial ? levelOfSpan(p.meanStreamSpan()) : 0;
        result.tags[ref] = tag;
    }
    return result;
}

trace::Trace
retagFromProfile(const trace::Trace &t,
                 const ProfileTaggerParams &params)
{
    return analysis::mapTags(t,
                             analysis::retag(profileTags(t, params).tags));
}

} // namespace locality
} // namespace sac
