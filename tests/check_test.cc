/**
 * @file
 * Tests of the src/check subsystem: the structural invariant auditor
 * (detection of deliberately corrupted cache state, silence on clean
 * runs), the trace shrinker (minimality, budget), and the full
 * fault-injection pipeline — a corrupted counter is caught by the
 * differential runner, shrunk to a minimal repro, written as a trace
 * file and replayed from it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/check/auditor.hh"
#include "src/check/shrinker.hh"
#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/trace/trace_io.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using check::Auditor;

/** A fresh main/aux pair matching @p cfg's geometry. */
struct Arrays
{
    cache::CacheArray main;
    cache::CacheArray aux;

    explicit Arrays(const core::Config &cfg)
        : main(cfg.cacheSizeBytes, cfg.lineBytes, cfg.assoc),
          aux(static_cast<std::uint64_t>(cfg.auxLines) * cfg.lineBytes,
              cfg.lineBytes, cfg.auxLines)
    {
    }
};

core::Config
auditedConfig()
{
    core::Config cfg = core::presets().get("soft");
    return cfg;
}

TEST(Auditor, CleanArraysProduceNoViolations)
{
    const core::Config cfg = auditedConfig();
    Arrays a(cfg);
    a.main.insert(a.main.lineAddrOf(0x1000), cache::ReplacementPolicy::Lru);
    a.aux.insert(a.aux.lineAddrOf(0x2000), cache::ReplacementPolicy::Lru);

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditArrays(a.main, &a.aux, cfg, 1);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_TRUE(auditor.violations().empty());
}

TEST(Auditor, DetectsDuplicateResidency)
{
    const core::Config cfg = auditedConfig();
    Arrays a(cfg);
    const Addr line = a.main.lineAddrOf(0x4000);
    a.main.insert(line, cache::ReplacementPolicy::Lru);
    a.aux.insert(line, cache::ReplacementPolicy::Lru);

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditArrays(a.main, &a.aux, cfg, 7);
    ASSERT_FALSE(auditor.violations().empty());
    EXPECT_EQ(auditor.violations().front().kind, "duplicate_line");
    EXPECT_EQ(auditor.violations().front().cycle, 7u);
    EXPECT_EQ(auditor.violations().front().addr, line);
    EXPECT_EQ(auditor.counters().value("audit.violation.duplicate_line"),
              1u);
}

TEST(Auditor, DetectsSetMismatch)
{
    const core::Config cfg = auditedConfig();
    Arrays a(cfg);
    a.main.insert(a.main.lineAddrOf(0x8000),
                  cache::ReplacementPolicy::Lru);
    // Corrupt the resident line so its address maps to another set.
    const std::uint32_t set =
        a.main.setIndexOf(a.main.lineAddrOf(0x8000));
    auto slot = a.main.line(set, 0);
    cache::LineState corrupt = slot.state();
    corrupt.lineAddr += 1;
    slot.assign(corrupt);

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditArrays(a.main, nullptr, cfg, 3);
    ASSERT_FALSE(auditor.violations().empty());
    EXPECT_EQ(auditor.violations().front().kind, "set_mismatch");
}

TEST(Auditor, DetectsTemporalBitWithoutTags)
{
    core::Config cfg = core::presets().get("standard"); // temporalBits off
    cache::CacheArray main(cfg.cacheSizeBytes, cfg.lineBytes,
                           cfg.assoc);
    main.insert(main.lineAddrOf(0x1000), cache::ReplacementPolicy::Lru);
    const std::uint32_t set = main.setIndexOf(main.lineAddrOf(0x1000));
    main.line(set, 0).setTemporal(true);

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditArrays(main, nullptr, cfg, 2);
    ASSERT_FALSE(auditor.violations().empty());
    EXPECT_EQ(auditor.violations().front().kind,
              "temporal_without_tags");
}

TEST(Auditor, DetectsDuplicateWayAndLruClash)
{
    core::Config cfg = core::presets().get("2way");
    cache::CacheArray main(cfg.cacheSizeBytes, cfg.lineBytes,
                           cfg.assoc);
    const Addr line = main.lineAddrOf(0x2000);
    const std::uint32_t set = main.setIndexOf(line);
    // Forge the same line in both ways with colliding LRU stamps.
    for (std::uint32_t way = 0; way < 2; ++way) {
        cache::LineState forged;
        forged.valid = true;
        forged.lineAddr = line;
        forged.lruStamp = 42;
        main.line(set, way).assign(forged);
    }

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditArrays(main, nullptr, cfg, 9);
    EXPECT_GE(auditor.violationCount(), 2u);
    EXPECT_EQ(auditor.counters().value("audit.violation.duplicate_way"),
              1u);
    EXPECT_EQ(
        auditor.counters().value("audit.violation.lru_stamp_clash"),
        1u);
}

TEST(Auditor, DetectsTrafficMismatch)
{
    const core::Config cfg = auditedConfig();
    sim::RunStats stats;
    stats.accesses = 1;
    stats.reads = 1;
    stats.misses = 1;
    stats.compulsoryMisses = 1;
    stats.linesFetched = 1;
    stats.bytesFetched = cfg.lineBytes + 4; // not a whole line

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditStats(stats, cfg, 5);
    ASSERT_FALSE(auditor.violations().empty());
    EXPECT_EQ(auditor.violations().front().kind, "traffic_mismatch");
}

TEST(Auditor, DetectsAccessAccountingSkew)
{
    const core::Config cfg = auditedConfig();
    sim::RunStats stats;
    stats.accesses = 3;
    stats.reads = 3;
    stats.mainHits = 1; // 2 accesses unaccounted for

    Auditor auditor(Auditor::OnViolation::Record);
    auditor.auditStats(stats, cfg, 4);
    ASSERT_FALSE(auditor.violations().empty());
    EXPECT_EQ(auditor.violations().front().kind, "access_accounting");
}

TEST(Auditor, PanicModeAbortsWithCycleAndAddress)
{
    const core::Config cfg = auditedConfig();
    Arrays a(cfg);
    const Addr line = a.main.lineAddrOf(0x4000);
    a.main.insert(line, cache::ReplacementPolicy::Lru);
    a.aux.insert(line, cache::ReplacementPolicy::Lru);

    Auditor auditor(Auditor::OnViolation::Panic);
    EXPECT_DEATH(auditor.auditArrays(a.main, &a.aux, cfg, 7),
                 "audit violation 'duplicate_line' at cycle 7");
}

TEST(Auditor, CleanSimulationAuditsSilently)
{
    const auto t = workloads::makeBenchmarkTrace("MV");
    core::SoftwareAssistedCache sim(core::presets().get("soft"));
    Auditor auditor(Auditor::OnViolation::Record);
    sim.attachAuditor(&auditor);
    sim.run(t);

    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.accessesAudited(), t.size());
}

// --- Shrinker ----------------------------------------------------

trace::Trace
scatterTrace(std::uint64_t seed, std::size_t n)
{
    util::Rng rng(seed);
    trace::Trace t("scatter");
    for (std::size_t i = 0; i < n; ++i) {
        trace::Record r;
        r.addr = 0x1000 + rng.nextBelow(1 << 16) * 8;
        r.type = rng.nextBool(0.5) ? trace::AccessType::Write
                                   : trace::AccessType::Read;
        t.push(r);
    }
    return t;
}

TEST(Shrinker, MinimizesToTheTriggeringRecord)
{
    trace::Trace t = scatterTrace(17, 300);
    const Addr magic = 0xdead0008;
    trace::Record needle;
    needle.addr = magic;
    needle.type = trace::AccessType::Write;
    t.at(211) = needle;

    const auto fails = [&](const trace::Trace &cand) {
        for (const auto &r : cand) {
            if (r.addr == magic && r.isWrite())
                return true;
        }
        return false;
    };

    const check::Shrinker shrinker;
    const auto res = shrinker.minimize(t, fails);
    EXPECT_EQ(res.originalSize, 300u);
    ASSERT_EQ(res.trace.size(), 1u);
    EXPECT_EQ(res.trace[0].addr, magic);
    EXPECT_FALSE(res.budgetExhausted);
    EXPECT_LT(res.probes, 2000u);
}

TEST(Shrinker, RespectsTheProbeBudget)
{
    trace::Trace t = scatterTrace(23, 200);
    // A predicate that needs most of the trace: at least 150 records.
    const auto fails = [](const trace::Trace &cand) {
        return cand.size() >= 150;
    };
    const check::Shrinker shrinker(25);
    const auto res = shrinker.minimize(t, fails);
    EXPECT_LE(res.probes, 26u);
    EXPECT_TRUE(fails(res.trace));
}

// --- Injected-fault pipeline -------------------------------------

/**
 * The deliberate fault: the simulator's miss counter is bumped
 * whenever the trace contains a write to a line-aligned address, so
 * any such trace diverges from the oracle.
 */
bool
triggers(const trace::Record &r)
{
    return r.isWrite() && (r.addr % 64) == 0;
}

check::CountsCorruption
injectedFault()
{
    return [](const trace::Trace &t, sim::ReferenceCounts &got) {
        for (const auto &r : t) {
            if (triggers(r)) {
                ++got.misses;
                return;
            }
        }
    };
}

TEST(FaultInjection, CaughtShrunkWrittenAndReplayed)
{
    // Find a fuzz case whose trace contains a triggering record.
    const check::TraceFuzzer fuzzer;
    check::FuzzCase c;
    bool found = false;
    for (std::uint64_t i = 0; i < 50 && !found; ++i) {
        c = fuzzer.makeCase(i);
        for (const auto &r : c.trace)
            found = found || triggers(r);
    }
    ASSERT_TRUE(found) << "no fuzz case triggers the injected fault";

    const auto fault = injectedFault();

    // 1. The differential runner catches the divergence.
    const auto out = check::runCase(c.trace, c.config, fault);
    ASSERT_TRUE(out.diverged);
    EXPECT_NE(out.divergence.find("misses"), std::string::npos);

    // 2. The shrinker minimizes it to the single triggering record.
    const auto still_fails = [&](const trace::Trace &t) {
        return !check::runCase(t, c.config, fault).ok();
    };
    const check::Shrinker shrinker;
    const auto res = shrinker.minimize(c.trace, still_fails);
    ASSERT_EQ(res.trace.size(), 1u);
    EXPECT_TRUE(triggers(res.trace[0]));

    // 3. The repro is written with trace::writeTraceFile...
    const std::string dir =
        (std::filesystem::temp_directory_path() / "sac-fuzz-repro")
            .string();
    const auto repro = check::writeRepro(res.trace, c.seed, dir);
    ASSERT_TRUE(repro.has_value());
    EXPECT_NE(repro->command.find("fuzz_replay --case"),
              std::string::npos);
    EXPECT_NE(repro->command.find(repro->path), std::string::npos);

    // 4. ...and replaying the written file still fails.
    trace::Trace loaded;
    ASSERT_TRUE(trace::readTraceFile(repro->path, loaded));
    ASSERT_EQ(loaded.size(), 1u);
    const auto replayed = check::runCase(loaded, c.config, fault);
    EXPECT_TRUE(replayed.diverged);

    // Without the injected fault the shrunk case is clean, proving
    // the divergence came from the fault, not the simulator.
    EXPECT_TRUE(check::runCase(loaded, c.config).ok());

    std::filesystem::remove_all(dir);
}

} // namespace
