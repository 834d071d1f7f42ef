/**
 * @file
 * Golden RunStats digests: every preset replays the nine paper traces
 * (timing seed 1) through core::simulateTrace, and an FNV-1a digest
 * of every counter, the bit pattern of totalAccessCycles and the
 * completion cycle must equal its pinned value. The other simulator
 * tests compare the simulator with itself (observed chunked vs
 * unobserved whole-trace replay, Runner vs simulateTrace) or cover a
 * subset of presets (sim::ReferenceModel); this one pins the exact
 * replay of every preset to the values it had before the access path
 * was last restructured, so a change that moves any counter or any
 * cycle of any preset fails here.
 *
 * GoldenSampled pins the sampled engines the same way: the digest of
 * SampleReport::detailed (every counter, the three miss classes
 * included, and both time fields) and of the window count, for the
 * warmed pass (SampledEngine::run) and for the restored pass
 * (buildLibrary, then runCheckpointed) of three presets. The two
 * passes are bit-identical, so both are held to one digest.
 *
 * One test case runs per preset (and pass), so `ctest -j` spreads
 * them.
 */

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/run_stats.hh"
#include "src/sim/sampling.hh"
#include "src/trace/trace_source.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;

/** A preset key and the digest of its stats over the paper traces. */
struct Golden
{
    std::string preset;
    std::uint64_t digest;
};

void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.preset;
}

std::string
caseName(const testing::TestParamInfo<Golden> &info)
{
    std::string out;
    for (const char ch : info.param.preset)
        out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
    return out;
}

std::string
hex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** 64-bit FNV-1a over the little-endian bytes of values and names. */
class Fnv1a
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void add(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<std::uint8_t>(c));
        byte(0);
    }

    std::uint64_t value() const { return h_; }

  private:
    void byte(std::uint8_t b)
    {
        h_ ^= b;
        h_ *= 0x100000001b3ull;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Fold every counter of @p s, then its two time fields, into @p h. */
void
digestStats(Fnv1a &h, const sim::RunStats &s)
{
    s.forEachCounter([&h](const char *name, const char *,
                          std::uint64_t value) {
        h.add(name);
        h.add(value);
    });
    h.add(std::bit_cast<std::uint64_t>(s.totalAccessCycles));
    h.add(s.completionCycle);
}

/** The nine paper traces at timing seed 1, built once per process. */
const std::vector<trace::Trace> &
paperTraces()
{
    static const std::vector<trace::Trace> traces = [] {
        std::vector<trace::Trace> out;
        for (const auto &b : workloads::paperBenchmarks())
            out.push_back(workloads::makeBenchmarkTrace(b.name, 1));
        return out;
    }();
    return traces;
}

class GoldenStats : public testing::TestWithParam<Golden>
{
};

TEST_P(GoldenStats, PaperTracesDigestIsPinned)
{
    const Golden &g = GetParam();
    const core::Config cfg = core::presets().get(g.preset);
    Fnv1a h;
    for (const trace::Trace &t : paperTraces()) {
        h.add(t.name());
        digestStats(h, core::simulateTrace(t, cfg));
    }
    EXPECT_EQ(hex(h.value()), hex(g.digest)) << "preset " << g.preset;
}

TEST(GoldenStatsCoverage, EveryPresetIsPinned)
{
    // A preset added to the registry must get a pinned digest here.
    EXPECT_EQ(core::presets().all().size(), 14u);
}

/** The sampled engine's two counting passes. */
enum class SampledPass
{
    Warmed,   //!< SampledEngine::run
    Restored, //!< buildLibrary, then runCheckpointed
};

/** A preset, a sampled pass and the digest of its reports. */
struct GoldenSample
{
    Golden golden;
    SampledPass pass;
};

void
PrintTo(const GoldenSample &g, std::ostream *os)
{
    *os << g.golden.preset
        << (g.pass == SampledPass::Warmed ? " warmed" : " restored");
}

std::string
sampleCaseName(const testing::TestParamInfo<GoldenSample> &info)
{
    std::string out;
    for (const char ch : info.param.golden.preset)
        out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
    return out +
           (info.param.pass == SampledPass::Warmed ? "_Warmed" : "_Restored");
}

class GoldenSampled : public testing::TestWithParam<GoldenSample>
{
};

TEST_P(GoldenSampled, PaperTracesDigestIsPinned)
{
    const GoldenSample &g = GetParam();
    const core::Config cfg = core::presets().get(g.golden.preset);
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 4096;
    opt.warmup = 2048;
    const sim::SampledEngine engine(opt);
    Fnv1a h;
    for (const trace::Trace &t : paperTraces()) {
        sim::SampleReport rep;
        if (g.pass == SampledPass::Warmed) {
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfg);
            rep = engine.run(src, sim);
        } else {
            sim::CheckpointLibrary lib;
            trace::MemoryTraceSource warm_src(t);
            core::SoftwareAssistedCache warmer(cfg);
            engine.buildLibrary(warm_src, warmer, lib);
            trace::MemoryTraceSource src(t);
            core::SoftwareAssistedCache sim(cfg);
            rep = engine.runCheckpointed(src, sim, lib);
        }
        EXPECT_FALSE(rep.exact) << t.name();
        // Every window miss is classified (none of the three presets
        // bypasses), so the digest covers the three classes.
        EXPECT_EQ(rep.detailed.compulsoryMisses +
                      rep.detailed.capacityMisses +
                      rep.detailed.conflictMisses,
                  rep.detailed.misses)
            << t.name();
        h.add(t.name());
        digestStats(h, rep.detailed);
        h.add(rep.windows);
    }
    EXPECT_EQ(hex(h.value()), hex(g.golden.digest))
        << "preset " << g.golden.preset;
}

/** One golden per preset, held by both passes. */
std::vector<GoldenSample>
sampledGoldens()
{
    const Golden goldens[] = {
        {"standard", 0x77cf57ea331ca8d0ull},
        {"soft", 0x345722b4174d5935ull},
        {"soft-prefetch", 0x6d62002fda5f767dull},
    };
    std::vector<GoldenSample> out;
    for (const Golden &g : goldens)
        for (const SampledPass p : {SampledPass::Warmed, SampledPass::Restored})
            out.push_back({g, p});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Preset, GoldenSampled,
                         testing::ValuesIn(sampledGoldens()),
                         sampleCaseName);

INSTANTIATE_TEST_SUITE_P(
    Preset, GoldenStats,
    testing::Values(Golden{"standard", 0xbc895f428f0eaca1ull},
                    Golden{"victim", 0x4fd19cc5d4a8f29bull},
                    Golden{"soft", 0x64d71c32d9ac9a14ull},
                    Golden{"soft-temporal", 0x02c1558f5c3a0d97ull},
                    Golden{"soft-spatial", 0x8fdf37e74dee1ca1ull},
                    Golden{"variable", 0xee596ebeeec2a9fdull},
                    Golden{"bypass", 0xbbdeeee21a398b3bull},
                    Golden{"bypass-buffer", 0x44d21923cdb3030eull},
                    Golden{"2way", 0x2e4fe5008825e017ull},
                    Golden{"2way-victim", 0xd15fc67ac03bfadbull},
                    Golden{"soft-2way", 0x290eaf121350bf92ull},
                    Golden{"simplified-soft-2way", 0xb37d512f136ef0a6ull},
                    Golden{"standard-prefetch", 0x8adce480c3e6b40eull},
                    Golden{"soft-prefetch", 0xe648c63f5f0dff0cull}),
    caseName);

} // namespace
