#include "src/check/trace_fuzzer.hh"

#include <array>
#include <vector>

#include "src/analysis/tag_transform.hh"
#include "src/check/auditor.hh"
#include "src/core/soft_cache.hh"
#include "src/util/logging.hh"

namespace sac {
namespace check {

namespace {

/** splitmix64 step: decorrelates sequential sweep indices. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Append one record with the fuzzer's common fields drawn. */
void
pushRecord(trace::Trace &t, util::Rng &rng, Addr addr, bool write,
           bool temporal, bool spatial, std::uint8_t spatial_level)
{
    trace::Record r;
    r.addr = addr;
    r.ref = static_cast<RefId>(rng.nextBelow(64));
    r.delta = static_cast<std::uint16_t>(1 + rng.nextBelow(8));
    r.size = static_cast<std::uint8_t>(rng.nextBool(0.8) ? 8 : 4);
    r.type = write ? trace::AccessType::Write : trace::AccessType::Read;
    r.temporal = temporal;
    r.spatial = spatial;
    r.spatialLevel = spatial ? spatial_level : 0;
    t.push(r);
}

} // namespace

std::uint64_t
TraceFuzzer::caseSeed(std::uint64_t index) const
{
    return splitmix64(masterSeed_ + index * 0x9e3779b97f4a7c15ull);
}

core::Config
TraceFuzzer::fuzzConfig(util::Rng &rng)
{
    core::Config cfg = core::presets().get("standard");
    cfg.name = "fuzz";

    // The oracle's scope (ReferenceModel::supports): direct-mapped
    // main cache, no bypassing, no prefetching, fully-associative aux.
    cfg.assoc = 1;
    cfg.bypass = core::BypassMode::None;
    cfg.prefetch = false;
    cfg.auxAssoc = 0;

    constexpr std::array<std::uint64_t, 3> sizes = {1024, 4096, 8192};
    constexpr std::array<std::uint32_t, 3> lines = {16, 32, 64};
    constexpr std::array<std::uint32_t, 6> aux = {0, 1, 2, 4, 8, 32};
    constexpr std::array<std::uint32_t, 5> wbuf = {1, 2, 3, 8, 64};

    cfg.cacheSizeBytes = sizes[rng.nextBelow(sizes.size())];
    cfg.lineBytes = lines[rng.nextBelow(lines.size())];
    cfg.auxLines = aux[rng.nextBelow(aux.size())];
    cfg.writeBufferEntries = wbuf[rng.nextBelow(wbuf.size())];

    if (cfg.auxLines > 0) {
        cfg.auxReceivesVictims = rng.nextBool(0.8);
        cfg.bounceBack = cfg.auxReceivesVictims && rng.nextBool(0.7);
    }
    cfg.temporalBits = rng.nextBool(0.7);
    cfg.resetTemporalBitOnBounce = rng.nextBool(0.8);
    cfg.virtualLines = rng.nextBool(0.7);
    if (cfg.virtualLines) {
        // 2, 4 or 8 physical lines per virtual line.
        cfg.virtualLineBytes =
            cfg.lineBytes * (2u << rng.nextBelow(3));
        cfg.variableVirtualLines = rng.nextBool(0.4);
    }
    cfg.virtualLineCoherenceCheck = rng.nextBool(0.8);
    cfg.classifyMisses = rng.nextBool(0.25);

    cfg.validate();
    SAC_ASSERT(sim::ReferenceModel::supports(cfg),
               "fuzzed configuration left the oracle's scope");
    return cfg;
}

trace::Trace
TraceFuzzer::fuzzTrace(util::Rng &rng, const core::Config &cfg)
{
    trace::Trace t("fuzz");
    const std::uint64_t target = 64 + rng.nextBelow(448);
    t.reserve(target + 64);

    while (t.size() < target) {
        switch (rng.nextBelow(5)) {
          case 0: {
            // Set-aliasing ladder: lines exactly one main-cache image
            // apart thrash a single set and stress victim/bounce-back
            // traffic.
            const Addr base = 0x200000 +
                              rng.nextBelow(64) * cfg.lineBytes;
            const std::uint64_t rungs = 2 + rng.nextBelow(6);
            const std::uint64_t reps = 2 + rng.nextBelow(12);
            for (std::uint64_t i = 0; i < reps; ++i) {
                const Addr addr =
                    base + (i % rungs) * cfg.cacheSizeBytes;
                pushRecord(t, rng, addr, rng.nextBool(0.3),
                           rng.nextBool(0.6), rng.nextBool(0.2),
                           static_cast<std::uint8_t>(
                               1 + rng.nextBelow(3)));
            }
            break;
          }
          case 1: {
            // Virtual-line boundary straddle: walk addresses across a
            // virtual-line boundary with spatial tags, exercising the
            // pipelined coherence checks and level capping.
            const std::uint32_t vbytes =
                cfg.virtualLines ? cfg.virtualLineBytes
                                 : cfg.lineBytes * 2;
            const Addr block =
                0x300000 + rng.nextBelow(1 << 10) * vbytes;
            const std::uint64_t steps = 3 + rng.nextBelow(8);
            for (std::uint64_t i = 0; i < steps; ++i) {
                const std::int64_t off =
                    rng.nextInRange(-3, 3) *
                    static_cast<std::int64_t>(elementBytes);
                const Addr addr = static_cast<Addr>(
                    static_cast<std::int64_t>(block + vbytes) + off);
                pushRecord(t, rng, addr, rng.nextBool(0.2), false, true,
                           static_cast<std::uint8_t>(rng.nextBelow(10)));
            }
            break;
          }
          case 2: {
            // Write burst over aliasing dirty lines: maximum write
            // buffer pressure, including forced drains when full.
            const Addr base =
                0x400000 + rng.nextBelow(32) * cfg.lineBytes;
            const std::uint64_t burst = 4 + rng.nextBelow(24);
            for (std::uint64_t i = 0; i < burst; ++i) {
                const Addr addr =
                    base + (i % 3) * cfg.cacheSizeBytes +
                    rng.nextBelow(4) * elementBytes;
                pushRecord(t, rng, addr, true, rng.nextBool(0.4),
                           rng.nextBool(0.2), 1);
            }
            break;
          }
          case 3: {
            // Random scatter inside a 4 MB window.
            const std::uint64_t n = 4 + rng.nextBelow(16);
            for (std::uint64_t i = 0; i < n; ++i) {
                const Addr addr = rng.nextBelow(1ull << 22) &
                                  ~static_cast<Addr>(3);
                pushRecord(t, rng, addr, rng.nextBool(0.4),
                           rng.nextBool(0.5), rng.nextBool(0.5),
                           static_cast<std::uint8_t>(
                               1 + rng.nextBelow(4)));
            }
            break;
          }
          default: {
            // Hot temporal set: repeated touches of a few lines.
            const Addr base =
                0x500000 + rng.nextBelow(128) * cfg.lineBytes;
            const std::uint64_t n = 4 + rng.nextBelow(16);
            for (std::uint64_t i = 0; i < n; ++i) {
                const Addr addr =
                    base + rng.nextBelow(4) * cfg.lineBytes +
                    rng.nextBelow(4) * elementBytes;
                pushRecord(t, rng, addr, rng.nextBool(0.25), true,
                           false, 0);
            }
            break;
          }
        }
    }

    // Model mis-analyzed references: corrupt the tags of a random
    // fraction of static references (the paper's safety claim must
    // hold for wrong tags too).
    if (rng.nextBool(0.33))
        t = analysis::corruptTags(t, rng.nextDouble() * 0.6,
                                  rng.next());
    return t;
}

FuzzCase
TraceFuzzer::caseFromSeed(std::uint64_t case_seed)
{
    util::Rng rng(case_seed);
    FuzzCase c;
    c.seed = case_seed;
    c.config = fuzzConfig(rng);
    c.trace = fuzzTrace(rng, c.config);
    return c;
}

CaseOutcome
runCase(const trace::Trace &t, const core::Config &cfg,
        const CountsCorruption &corrupt)
{
    SAC_ASSERT(sim::ReferenceModel::supports(cfg),
               "runCase needs an oracle-supported configuration");
    CaseOutcome out;

    core::SoftwareAssistedCache sim(cfg);
    Auditor auditor(Auditor::OnViolation::Record);
    sim.attachAuditor(&auditor);
    sim.run(t);
    out.got = sim::countsOf(sim.stats());
    if (corrupt)
        corrupt(t, out.got);

    // Replay again on outcomes from a separate shadow pass, as a
    // harness::Runner traversal supplies them, with no observer
    // attached: every counter, timing included, must equal the run on
    // the simulator's own classifier with the auditor riding along.
    std::vector<sim::ShadowOutcome> outcomes(t.size());
    core::shadowClassifierOf(cfg).classify(t.data(), t.size(),
                                           outcomes.data());
    core::SoftwareAssistedCache supplied(cfg);
    supplied.replay(t.data(), t.size(), outcomes.data());
    supplied.finish();
    if (!(supplied.stats() == sim.stats())) {
        out.outcomesDiverged = true;
        const std::string counter_diff = sim::describeDivergence(
            sim::countsOf(supplied.stats()), sim::countsOf(sim.stats()));
        out.outcomesDivergence =
            "replay on supplied shadow outcomes disagrees with the "
            "simulator's own classifier" +
            (counter_diff.empty() ? std::string(" (timing fields only)")
                                  : ": " + counter_diff);
    }

    out.expected = sim::referenceCounts(t, cfg);
    if (!(out.expected == out.got)) {
        out.diverged = true;
        out.divergence = sim::describeDivergence(out.expected, out.got);
    }
    out.auditViolations = auditor.violations().size();
    if (!auditor.violations().empty()) {
        const Violation &v = auditor.violations().front();
        out.firstAuditViolation = v.kind + ": " + v.message;
    }
    return out;
}

CaseOutcome
runCase(const FuzzCase &c, const CountsCorruption &corrupt)
{
    return runCase(c.trace, c.config, corrupt);
}

} // namespace check
} // namespace sac
