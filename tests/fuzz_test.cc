/**
 * @file
 * The fixed-seed differential fuzz budget run under CTest: 5000
 * adversarial (config, trace) cases generated from
 * check::TraceFuzzer::defaultMasterSeed, replayed through both
 * core::SoftwareAssistedCache (with the auditor attached) and the
 * sim::ReferenceModel oracle. Sharded so the sweep parallelizes under
 * `ctest -j`. Any failure prints the case
 * seed and the one-line fuzz_replay command.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/check/trace_fuzzer.hh"

namespace {

using namespace sac;

constexpr std::uint64_t casesPerShard = 1250;
constexpr std::uint64_t numShards = 4;

void
runShard(std::uint64_t shard)
{
    const check::TraceFuzzer fuzzer;
    const std::uint64_t begin = shard * casesPerShard;
    for (std::uint64_t i = begin; i < begin + casesPerShard; ++i) {
        const auto c = fuzzer.makeCase(i);
        const auto out = check::runCase(c);
        ASSERT_TRUE(out.ok())
            << "fuzz case " << i << " (seed 0x" << std::hex << c.seed
            << std::dec << ", " << c.trace.size()
            << " records) failed\n"
            << out.divergence
            << (out.auditViolations > 0
                    ? "first audit violation: " + out.firstAuditViolation
                    : std::string())
            << "\nreplay with: build/examples/fuzz_replay --case 0x"
            << std::hex << c.seed << std::dec;
    }
}

TEST(FuzzSweep, Shard0) { runShard(0); }
TEST(FuzzSweep, Shard1) { runShard(1); }
TEST(FuzzSweep, Shard2) { runShard(2); }
TEST(FuzzSweep, Shard3) { runShard(3); }

TEST(FuzzSweep, BudgetCoversTheRequiredSpace)
{
    // The acceptance bar: >= 5000 adversarial traces over >= 8
    // distinct fuzzed configurations (measured on the first shard
    // alone, so the full sweep can only cover more).
    EXPECT_GE(casesPerShard * numShards, 5000u);

    const check::TraceFuzzer fuzzer;
    std::set<std::string> keys;
    std::uint64_t records = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const auto c = fuzzer.makeCase(i);
        keys.insert(c.config.cacheKey());
        records += c.trace.size();
    }
    EXPECT_GE(keys.size(), 8u);
    EXPECT_GT(records, 0u);
}

TEST(FuzzSweep, CasesAreDeterministic)
{
    const check::TraceFuzzer fuzzer;
    const auto a = fuzzer.makeCase(42);
    const auto b = check::TraceFuzzer::caseFromSeed(a.seed);
    EXPECT_EQ(a.config.cacheKey(), b.config.cacheKey());
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_EQ(a.trace[i], b.trace[i]) << "record " << i;
}

TEST(FuzzSweep, RecordSizesFitTheRecord)
{
    // trace::Record holds the access size in 4 bits, so a fuzzed size
    // above 15 would be stored modulo 16: 16 reads back as 0, and any
    // other wrapped size as something the fuzzer never draws.
    const check::TraceFuzzer fuzzer;
    for (std::uint64_t i = 0; i < casesPerShard * numShards; ++i) {
        const auto c = fuzzer.makeCase(i);
        for (const trace::Record &r : c.trace) {
            ASSERT_TRUE(r.size == 4 || r.size == 8)
                << "fuzz case " << i << " size " << unsigned(r.size);
        }
    }
}

} // namespace
