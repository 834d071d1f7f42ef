/**
 * @file
 * Unit tests for the trace tag transformations used by the
 * robustness study.
 */

#include <gtest/gtest.h>

#include "src/analysis/tag_stats.hh"
#include "src/analysis/tag_transform.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using analysis::computeTagStats;
using analysis::corruptTags;
using analysis::stripAllTags;
using analysis::stripSpatialTags;
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

} // namespace
