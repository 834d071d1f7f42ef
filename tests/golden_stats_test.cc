/**
 * @file
 * Golden RunStats digests: every preset replays the nine paper traces
 * (timing seed 1) through core::simulateTrace, and an FNV-1a digest
 * of every counter, the bit pattern of totalAccessCycles and the
 * completion cycle must equal its pinned value. The other simulator
 * tests compare the simulator with itself (supplied vs owned shadow
 * outcomes, Runner vs simulateTrace) or cover a subset of presets
 * (sim::ReferenceModel); this one pins the exact replay of every
 * preset to the values it had before the access path was last
 * restructured, so a change that moves any counter or any cycle of
 * any preset fails here.
 *
 * One test case runs per preset, so `ctest -j` spreads them.
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
#include "src/sim/run_stats.hh"
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
