/**
 * @file
 * Unit tests for the trace tag transformations used by the
 * robustness study, and for tag variants streamed through
 * harness::Runner::run (each traversal with a fresh mutator), checked
 * against the whole-trace maps.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/analysis/tag_stats.hh"
#include "src/analysis/tag_transform.hh"
#include "src/harness/sweep.hh"
#include "src/locality/profile_tagger.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;
using analysis::computeTagStats;
using analysis::corruptTags;
using analysis::flipTags;
using analysis::stripAllTags;
using analysis::stripSpatialTags;
using analysis::stripTags;
using analysis::stripTemporalTags;

trace::Trace
sample()
{
    return workloads::makeTaggedTrace(workloads::buildMv(32));
}

TEST(TagTransform, StripAllClearsEverything)
{
    const auto t = stripAllTags(sample());
    const auto s = computeTagStats(t);
    EXPECT_EQ(s.fractionTemporal(), 0.0);
    EXPECT_EQ(s.fractionSpatial(), 0.0);
    for (std::size_t i = 0; i < t.size(); i += 17)
        EXPECT_EQ(t[i].spatialLevel, 0u);
}

TEST(TagTransform, StripTemporalKeepsSpatial)
{
    const auto orig = sample();
    const auto t = stripTemporalTags(orig);
    const auto s = computeTagStats(t);
    EXPECT_EQ(s.fractionTemporal(), 0.0);
    EXPECT_DOUBLE_EQ(s.fractionSpatial(),
                     computeTagStats(orig).fractionSpatial());
}

TEST(TagTransform, StripSpatialKeepsTemporal)
{
    const auto orig = sample();
    const auto t = stripSpatialTags(orig);
    const auto s = computeTagStats(t);
    EXPECT_EQ(s.fractionSpatial(), 0.0);
    EXPECT_DOUBLE_EQ(s.fractionTemporal(),
                     computeTagStats(orig).fractionTemporal());
}

TEST(TagTransform, TransformsPreserveAddressesAndTiming)
{
    const auto orig = sample();
    const auto t = stripAllTags(orig);
    ASSERT_EQ(t.size(), orig.size());
    for (std::size_t i = 0; i < t.size(); i += 7) {
        EXPECT_EQ(t[i].addr, orig[i].addr);
        EXPECT_EQ(t[i].delta, orig[i].delta);
        EXPECT_EQ(t[i].type, orig[i].type);
        EXPECT_EQ(t[i].ref, orig[i].ref);
    }
}

TEST(TagTransform, CorruptZeroFractionIsIdentity)
{
    const auto orig = sample();
    const auto t = corruptTags(orig, 0.0);
    for (std::size_t i = 0; i < t.size(); i += 13)
        EXPECT_EQ(t[i], orig[i]);
}

TEST(TagTransform, CorruptFullFractionInvertsEverything)
{
    const auto orig = sample();
    const auto t = corruptTags(orig, 1.0);
    for (std::size_t i = 0; i < t.size(); i += 13) {
        EXPECT_EQ(t[i].temporal, !orig[i].temporal);
        EXPECT_EQ(t[i].spatial, !orig[i].spatial);
    }
}

TEST(TagTransform, CorruptionIsPerStaticReference)
{
    // Every dynamic instance of a RefId must be flipped identically.
    const auto orig = sample();
    const auto t = corruptTags(orig, 0.5, 99);
    std::map<RefId, bool> flipped;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const bool flip = t[i].temporal != orig[i].temporal ||
                          t[i].spatial != orig[i].spatial;
        const auto [it, fresh] = flipped.emplace(t[i].ref, flip);
        if (!fresh) {
            EXPECT_EQ(it->second, flip) << "ref " << t[i].ref;
        }
    }
}

TEST(TagTransform, CorruptionIsDeterministicPerSeed)
{
    const auto orig = sample();
    const auto a = corruptTags(orig, 0.5, 7);
    const auto b = corruptTags(orig, 0.5, 7);
    for (std::size_t i = 0; i < a.size(); i += 11)
        EXPECT_EQ(a[i], b[i]);
}

TEST(TagTransform, SpatialLevelFollowsFlippedBit)
{
    const auto orig = sample();
    const auto t = corruptTags(orig, 1.0);
    for (std::size_t i = 0; i < t.size(); i += 13)
        EXPECT_EQ(t[i].spatial, t[i].spatialLevel > 0);
}

// ---- Streamed variants ----------------------------------------------

/** One tag variant: its mutator per traversal and its whole-trace map. */
struct Variant
{
    std::string tag;
    std::function<analysis::TagMutator(const trace::Trace &)> mutator;
    std::function<trace::Trace(const trace::Trace &)> map;
};

std::vector<Variant>
variants()
{
    const auto fixed = [](analysis::TagMutator m) {
        return [m](const trace::Trace &) { return m; };
    };
    return {
        {"notemp", fixed(stripTags(true, false)), stripTemporalTags},
        {"nospat", fixed(stripTags(false, true)), stripSpatialTags},
        {"notags", fixed(stripTags(true, true)), stripAllTags},
        {"flip10", fixed(flipTags(0.1)),
         [](const trace::Trace &t) { return corruptTags(t, 0.1); }},
        {"flip100", fixed(flipTags(1.0)),
         [](const trace::Trace &t) { return corruptTags(t, 1.0); }},
        {"profile",
         [](const trace::Trace &t) {
             return analysis::retag(locality::profileTags(t).tags);
         },
         [](const trace::Trace &t) {
             return locality::retagFromProfile(t);
         }},
    };
}

/**
 * A workload that streams the variant of @p t: each stream() call
 * pushes @p t's records through a fresh mutator (the shape of the
 * benches' tag variants). Its build must never run.
 */
harness::Workload
streamedVariant(const trace::Trace &t, const Variant &v)
{
    return {"MV-" + v.tag,
            [] {
                ADD_FAILURE() << "a streamed variant was materialized";
                return trace::Trace();
            },
            [&t, mutator = v.mutator](const trace::RecordSink &sink) {
                analysis::streamTags(t, mutator(t), sink);
            }};
}

/** Tag-sensitive exact configurations. */
std::vector<core::Config>
taggedConfigs()
{
    std::vector<core::Config> out;
    for (const char *key : {"soft", "soft-temporal", "soft-prefetch",
                            "variable"})
        out.push_back(core::presets().get(key));
    return out;
}

TEST(TagVariantSweep, OneRequestOfEveryVariantMatchesTheMaps)
{
    const auto orig = sample();
    const auto vs = variants();
    std::vector<harness::Workload> ws;
    for (const Variant &v : vs)
        ws.push_back(streamedVariant(orig, v));
    const std::vector<core::Config> cfgs{core::presets().get("soft")};
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        harness::Runner r;
        const auto res = r.run(testref::request(
            ws, cfgs, harness::amatMetric(), jobs,
            harness::EngineSelect::Exact));
        for (std::size_t i = 0; i < vs.size(); ++i) {
            SCOPED_TRACE(vs[i].tag);
            EXPECT_TRUE(res.at(i, 0).stats ==
                        core::simulateTrace(vs[i].map(orig), cfgs[0]));
        }
    }
}

TEST(TagVariantSweep, VariantSplitOverTraversalsMatchesTheMap)
{
    // One workload, four workers and four exact configs: the variant
    // is streamed by four traversals, one config each, so a mutator
    // whose state outlived one stream() call would skew the others.
    const auto orig = sample();
    const auto cfgs = taggedConfigs();
    for (const Variant &v : variants()) {
        SCOPED_TRACE(v.tag);
        const trace::Trace mapped = v.map(orig);
        harness::Runner r;
        const auto res = r.run(testref::request(
            {streamedVariant(orig, v)}, cfgs, harness::amatMetric(), 4,
            harness::EngineSelect::Exact));
        EXPECT_EQ(r.tracesGenerated(), cfgs.size());
        for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
            SCOPED_TRACE(cfgs[ci].name);
            EXPECT_TRUE(res.at(0, ci).stats ==
                        core::simulateTrace(mapped, cfgs[ci]));
        }
    }
}

} // namespace
