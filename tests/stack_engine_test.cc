/**
 * @file
 * The single-pass stack-distance engine's correctness story, in four
 * layers:
 *
 *  - StackEngine: unit tests of the profiler mechanics on hand-built
 *    traces (conflict thrash, truncated-depth reuse, coverage, misses
 *    split across set counts), and the early stop across set counts
 *    against one naive LRU list per lattice point on random traces.
 *  - StackDifferential: the engine against exact core::simulateTrace
 *    replay — bit-identical miss counts across size x assoc lattices
 *    for every standard-family preset, for the full 84-point
 *    three-line-size re-sweep lattice in one engine, and for the
 *    standard-config subset of the 5000-case differential fuzz
 *    corpus.
 *  - StackProperty: Mattson's inclusion property (miss counts
 *    monotone non-increasing in associativity at fixed sets, and in
 *    size at fixed associativity on the paper workloads).
 *  - StackAnalytic: convergence to the closed-form independent-
 *    reference-model miss ratio on long uniform-random traces — an
 *    oracle that shares no code with the simulator or the engine.
 *
 * Plus the harness integration (StackFamily): Runner::run dispatching
 * a standard family to ONE traversal per workload and line size
 * (checked against direct exact replay and a single-engine pass, at
 * 1, 2 and 4 jobs with the passes on the request's pool, and under
 * concurrent requests), the stack.pass.* counters, and
 * the StackRegression guard that configurations differing only in
 * fields the stack pass folds away still occupy distinct cells.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/sim/miss_classifier.hh"
#include "src/sim/stack_engine.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/trace_source.hh"
#include "src/util/json.hh"
#include "src/util/rng.hh"
#include "src/workloads/workloads.hh"
#include "tests/reference_sweep.hh"

namespace {

using namespace sac;

const trace::Trace &
mvTrace()
{
    static const trace::Trace t =
        workloads::makeTaggedTrace(workloads::buildMv(48));
    return t;
}

harness::Workload
mvWorkload()
{
    return {"MV", [] { return mvTrace(); }, nullptr};
}

/** A standard-family lattice config: @p base rescaled and re-wayed. */
core::Config
latticePoint(core::Config base, std::uint64_t cache_bytes,
             std::uint32_t assoc)
{
    base = core::scaledConfig(std::move(base), cache_bytes,
                              base.lineBytes);
    base.assoc = assoc;
    base.name += " A=" + std::to_string(assoc);
    base.validate();
    return base;
}

/** The 8-cell standard family of the acceptance criterion. */
std::vector<core::Config>
eightCellFamily()
{
    std::vector<core::Config> out;
    for (const std::uint64_t kb : {4, 8, 16, 32}) {
        for (const std::uint32_t ways : {1u, 2u})
            out.push_back(latticePoint(core::presets().get("standard"),
                                       kb * 1024, ways));
    }
    return out;
}

/**
 * Distinct @p line_bytes lines of @p t — the compulsory misses of
 * every cache at that line size — counted by the three-C classifier,
 * which shares no code with the stack engine.
 */
std::size_t
compulsoryLines(const trace::Trace &t, std::uint32_t line_bytes)
{
    sim::MissClassifier mc(1, line_bytes);
    std::vector<sim::ShadowOutcome> out(t.size());
    mc.classify(t.data(), t.size(), out.data());
    return mc.touchedLines();
}

/**
 * The re-sweep lattice: {1..64} KB x {1,2,4,8} ways x {16,32,64}-byte
 * lines of the standard preset, 84 points in three line groups.
 */
std::vector<core::Config>
resweepLattice()
{
    std::vector<core::Config> out;
    for (std::uint64_t kb = 1; kb <= 64; kb *= 2) {
        for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
            for (const std::uint32_t line : {16u, 32u, 64u}) {
                core::Config cfg = core::scaledConfig(
                    core::presets().get("standard"), kb * 1024, line);
                cfg.assoc = ways;
                cfg.name = std::to_string(kb) + "k/" +
                           std::to_string(ways) + "w/" +
                           std::to_string(line) + "B";
                cfg.validate();
                out.push_back(std::move(cfg));
            }
        }
    }
    return out;
}

// --- StackEngine: profiler mechanics --------------------------------

TEST(StackEngine, ConflictThrashMissesDirectMappedHitsTwoWay)
{
    // Two lines exactly one cache image apart alias to the same set:
    // alternating touches thrash a direct-mapped cache but fit in two
    // ways. Both geometries share sets=128, so one profiler answers
    // both.
    const sim::StackPoint one_way{4096, 32, 1};  // 128 sets
    const sim::StackPoint two_way{8192, 32, 2};  // 128 sets
    sim::StackDistanceEngine eng({one_way, two_way});

    trace::Trace t("thrash");
    for (int i = 0; i < 10; ++i) {
        t.push(trace::Record{.addr = 0x0});
        t.push(trace::Record{.addr = 0x1000}); // 4096 = one image apart
    }
    trace::MemoryTraceSource src(t);
    EXPECT_EQ(eng.run(src), 20u);

    EXPECT_EQ(eng.accesses(), 20u);
    EXPECT_EQ(eng.missCount(one_way), 20u); // every touch evicts
    EXPECT_EQ(eng.missCount(two_way), 2u);  // compulsory only
    EXPECT_DOUBLE_EQ(eng.missRatio(two_way), 0.1);
    EXPECT_EQ(compulsoryLines(t, 32), 2u);
    EXPECT_EQ(eng.missCount(two_way), compulsoryLines(t, 32));
}

TEST(StackEngine, ReuseBeyondTrackedDepthStaysAMiss)
{
    // Three aliasing lines cycled through a lattice tracking at most
    // 2 ways at 128 sets: every reuse has stack distance 3, a miss at
    // both associativities even though the lines were seen before. At
    // 1024 sets the three lines sit in sets of their own, so only
    // their first touches miss.
    const sim::StackPoint one_way{4096, 32, 1};
    const sim::StackPoint two_way{8192, 32, 2};
    const sim::StackPoint roomy{32768, 32, 1}; // 1024 sets
    sim::StackDistanceEngine eng({one_way, two_way, roomy});

    trace::Trace t("cycle3");
    for (int rep = 0; rep < 4; ++rep) {
        for (Addr a : {Addr{0}, Addr{0x1000}, Addr{0x2000}})
            t.push(trace::Record{.addr = a});
    }
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.missCount(one_way), 12u);
    EXPECT_EQ(eng.missCount(two_way), 12u);
    EXPECT_EQ(compulsoryLines(t, 32), 3u);
    EXPECT_EQ(eng.missCount(roomy), compulsoryLines(t, 32));
}

TEST(StackEngine, ReadWriteSplitFollowsTheRecords)
{
    sim::StackDistanceEngine eng({{1024, 32, 1}});
    trace::Trace t("rw");
    t.push(trace::Record{.addr = 0, .type = trace::AccessType::Read});
    t.push(trace::Record{.addr = 32, .type = trace::AccessType::Write});
    t.push(trace::Record{.addr = 0, .type = trace::AccessType::Write});
    eng.feed(t.data(), t.size());
    EXPECT_EQ(eng.reads(), 1u);
    EXPECT_EQ(eng.writes(), 2u);
    EXPECT_EQ(eng.accesses(), 3u);
}

TEST(StackEngine, CoversExactlyTheLatticeGeometries)
{
    sim::StackDistanceEngine eng({{8192, 32, 1}, {8192, 32, 2}});
    EXPECT_TRUE(eng.covers({8192, 32, 1}));
    EXPECT_TRUE(eng.covers({8192, 32, 2}));
    // Same sets (128) as the two-way point at half the size and one
    // way: covered, profilers key on (line, sets) up to max depth.
    EXPECT_TRUE(eng.covers({4096, 32, 1}));
    // Right set count (256), but deeper than the tracked depth there.
    EXPECT_FALSE(eng.covers({16384, 32, 2}));
    EXPECT_FALSE(eng.covers({32768, 32, 4}));
    EXPECT_FALSE(eng.covers({8192, 64, 1})); // other line size
    EXPECT_FALSE(eng.covers({8192, 48, 1})); // non-pow2 line
}

TEST(StackEngine, WellFormedRejectsNonPowerOfTwoGeometry)
{
    EXPECT_TRUE((sim::StackPoint{8192, 32, 1}).wellFormed());
    EXPECT_TRUE((sim::StackPoint{8192, 32, 2}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{8192, 48, 1}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{8192, 32, 0}).wellFormed());
    EXPECT_FALSE((sim::StackPoint{0, 32, 1}).wellFormed());
    // 8192 / (32 * 3) is not integral, let alone a power of two.
    EXPECT_FALSE((sim::StackPoint{8192, 32, 3}).wellFormed());
    // 96 sets: divisible but not a power of two.
    EXPECT_FALSE((sim::StackPoint{96 * 32, 32, 1}).wellFormed());
}

TEST(StackEngine, ResidentAndDeepMissesSplitAcrossSetCounts)
{
    // A 1024-set direct-mapped point keeps all 1000 distinct lines
    // resident, so its misses are the compulsory ones; a 16-set point
    // holds only the latest two lines per set.
    const sim::StackPoint big{1024 * 32, 32, 1};  // 1024 sets
    const sim::StackPoint small1{16 * 32, 32, 1}; // 16 sets, 1 way
    const sim::StackPoint small2{32 * 32, 32, 2}; // 16 sets, 2 ways
    sim::StackDistanceEngine eng({big, small1, small2});

    trace::Trace t("growth");
    for (Addr line = 0; line < 1000; ++line)
        t.push(trace::Record{.addr = line * 32});
    eng.feed(t.data(), t.size());
    EXPECT_EQ(compulsoryLines(t, 32), 1000u);
    for (const auto &p : {big, small1, small2})
        EXPECT_EQ(eng.missCount(p), 1000u); // compulsory only

    // The last 32 lines are each their set's two most recent at 16
    // sets, in order, so each re-touch sits at depth 2: a hit at two
    // ways, a miss at one.
    trace::Trace recent("recent");
    for (Addr line = 968; line < 1000; ++line)
        recent.push(trace::Record{.addr = line * 32});
    eng.feed(recent.data(), recent.size());
    EXPECT_EQ(eng.missCount(big), 1000u);
    EXPECT_EQ(eng.missCount(small1), 1032u);
    EXPECT_EQ(eng.missCount(small2), 1000u);

    // The first 100 lines are still resident at 1024 sets, but were
    // pushed past both ways at 16 sets: deep reuses, not first
    // touches, so the whole stream still touches 1000 lines.
    trace::Trace early("early");
    for (Addr line = 0; line < 100; ++line)
        early.push(trace::Record{.addr = line * 32});
    eng.feed(early.data(), early.size());
    trace::Trace all("all");
    for (const trace::Trace *part : {&t, &recent, &early}) {
        for (const trace::Record &r : *part)
            all.push(r);
    }
    EXPECT_EQ(compulsoryLines(all, 32), 1000u);
    EXPECT_EQ(eng.accesses(), 1132u);
    EXPECT_EQ(eng.missCount(big), 1000u);
    EXPECT_EQ(eng.missCount(small1), 1132u);
    EXPECT_EQ(eng.missCount(small2), 1100u);
}

/** One lattice point as a plain LRU list per set, MRU first. */
class NaiveLru
{
  public:
    explicit NaiveLru(const sim::StackPoint &p)
        : point_(p), sets_(static_cast<std::size_t>(p.sets()))
    {
    }

    void
    access(Addr addr)
    {
        const Addr line = addr / point_.lineBytes;
        std::vector<Addr> &set = sets_[line % sets_.size()];
        const auto it = std::find(set.begin(), set.end(), line);
        if (it == set.end()) {
            ++misses_;
            if (set.size() == point_.assoc)
                set.pop_back();
        } else {
            set.erase(it);
        }
        set.insert(set.begin(), line);
    }

    std::uint64_t misses() const { return misses_; }

  private:
    sim::StackPoint point_;
    std::vector<std::vector<Addr>> sets_;
    std::uint64_t misses_ = 0;
};

TEST(StackEngine, EarlyStopMatchesNaivePerPointLru)
{
    // The early stop across set counts against one naive LRU per
    // point. The lattices leave gaps between set counts (4 and 1024
    // sets only), track non-power-of-two depths (3 and 6 ways), hold
    // single-point line groups and mix three line sizes in one engine.
    const std::vector<std::vector<sim::StackPoint>> lattices = {
        {{4 * 32, 32, 1}, {4 * 32 * 4, 32, 4}, {1024 * 32, 32, 1},
         {1024 * 32 * 2, 32, 2}},
        {{16 * 32 * 3, 32, 3}, {64 * 32 * 6, 32, 6}, {16 * 32, 32, 1},
         {256 * 32 * 3, 32, 3}},
        {{8 * 64 * 2, 64, 2}},
        {{4 * 16, 16, 1},
         {4 * 16 * 6, 16, 6},
         {512 * 16 * 3, 16, 3},
         {32 * 32 * 2, 32, 2},
         {2 * 64 * 3, 64, 3},
         {1024 * 64, 64, 1},
         {128 * 64 * 8, 64, 8}},
    };
    util::Rng rng(0x5eed5);
    for (std::size_t l = 0; l < lattices.size(); ++l) {
        for (int round = 0; round < 8; ++round) {
            // Rows 2 KiB apart in six columns alias into a few sets at
            // small set counts and spread out at large ones; repeats
            // and short reuses put lines at MRU and just below it.
            trace::Trace t("alias");
            Addr last = 0;
            for (int i = 0; i < 6000; ++i) {
                const std::uint64_t pick = rng.nextBelow(10);
                if (pick < 3 && i > 0) {
                    t.push(trace::Record{.addr = last});
                    continue;
                }
                if (pick < 5 && t.size() > 8) {
                    last = t[t.size() - 1 - rng.nextBelow(8)].addr;
                } else {
                    last = rng.nextBelow(32) * 2048 +
                           rng.nextBelow(6) * 16 + rng.nextBelow(16);
                }
                t.push(trace::Record{.addr = last});
            }
            sim::StackDistanceEngine eng(lattices[l]);
            std::vector<NaiveLru> naive;
            for (const sim::StackPoint &p : lattices[l])
                naive.emplace_back(p);
            for (std::size_t i = 0; i < t.size();) {
                const std::size_t n =
                    std::min<std::size_t>(rng.nextBelow(97), t.size() - i);
                eng.feed(t.data() + i, n);
                i += n;
            }
            for (const trace::Record &r : t) {
                for (NaiveLru &m : naive)
                    m.access(r.addr);
            }
            for (std::size_t k = 0; k < naive.size(); ++k) {
                const sim::StackPoint &p = lattices[l][k];
                EXPECT_EQ(eng.missCount(p), naive[k].misses())
                    << "lattice " << l << " round " << round << " point "
                    << p.cacheSizeBytes << "B/" << p.lineBytes << "B/"
                    << p.assoc << "w";
            }
        }
    }
}

// --- StackDifferential: against exact replay ------------------------

/** Replay @p cfg exactly and diff every stack-derivable count. */
void
expectStackMatchesReplay(const sim::StackDistanceEngine &eng,
                         const trace::Trace &t,
                         const core::Config &cfg)
{
    const sim::RunStats exact = core::simulateTrace(t, cfg);
    const sim::RunStats stack = harness::stackStatsFor(eng, cfg);
    EXPECT_EQ(stack.misses, exact.misses) << cfg.name;
    EXPECT_EQ(stack.accesses, exact.accesses) << cfg.name;
    EXPECT_EQ(stack.reads, exact.reads) << cfg.name;
    EXPECT_EQ(stack.writes, exact.writes) << cfg.name;
    EXPECT_EQ(stack.mainHits, exact.mainHits) << cfg.name;
    EXPECT_EQ(stack.linesFetched, exact.linesFetched) << cfg.name;
    EXPECT_EQ(stack.bytesFetched, exact.bytesFetched) << cfg.name;
    // The derivable metrics are computed from the same integers, so
    // they match as doubles, bit for bit.
    EXPECT_EQ(stack.missRatio(), exact.missRatio()) << cfg.name;
    EXPECT_EQ(stack.wordsFetchedPerAccess(),
              exact.wordsFetchedPerAccess())
        << cfg.name;
    EXPECT_EQ(stack.mainHitShare(), exact.mainHitShare()) << cfg.name;
    EXPECT_EQ(stack.auxHitShare(), exact.auxHitShare()) << cfg.name;
}

TEST(StackDifferential, StandardFamilyPresetsAcrossTheLattice)
{
    const auto &t = mvTrace();
    // Every stack-eligible (plain LRU) preset, plus the standard
    // baseline at the other physical line sizes of Fig 8b.
    const std::vector<core::Config> bases = {
        core::presets().get("standard"),
        core::presets().get("2way"),
        core::standardWithLineSize(16),
        core::standardWithLineSize(64),
    };
    for (const auto &base : bases) {
        ASSERT_TRUE(harness::stackFamilyEligible(base)) << base.name;
        std::vector<core::Config> cfgs;
        for (const std::uint64_t kb : {2, 4, 8, 16}) {
            for (const std::uint32_t ways : {1u, 2u, 4u})
                cfgs.push_back(latticePoint(base, kb * 1024, ways));
        }
        std::vector<sim::StackPoint> points;
        for (const auto &cfg : cfgs)
            points.push_back(harness::stackPointOf(cfg));
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        for (const auto &cfg : cfgs)
            expectStackMatchesReplay(eng, t, cfg);
    }
}

TEST(StackDifferential, WarmResweepLatticeAllLineSizes)
{
    // The re-sweep lattice of the repository benchmark in ONE engine:
    // {1..64} KB x {1,2,4,8} ways x {16,32,64}-byte lines, 84 points
    // in three line groups of ten set counts each, against exact
    // replay of the paper MV trace. Its ~125k distinct 16-byte lines
    // keep every set's recency array full, and each point misses at
    // least once per distinct line of its size.
    const trace::Trace t = workloads::makeBenchmarkTrace("MV");
    const std::vector<core::Config> cfgs = resweepLattice();
    ASSERT_EQ(cfgs.size(), 84u);
    std::vector<sim::StackPoint> points;
    for (const auto &cfg : cfgs)
        points.push_back(harness::stackPointOf(cfg));
    sim::StackDistanceEngine eng(points);
    eng.feed(t.data(), t.size());
    EXPECT_GT(compulsoryLines(t, 16), 100000u);
    std::map<std::uint32_t, std::size_t> compulsory;
    for (const std::uint32_t line : {16u, 32u, 64u})
        compulsory[line] = compulsoryLines(t, line);
    for (const auto &cfg : cfgs) {
        EXPECT_GE(eng.missCount(harness::stackPointOf(cfg)),
                  compulsory[cfg.lineBytes])
            << cfg.name;
        expectStackMatchesReplay(eng, t, cfg);
    }
}

TEST(StackDifferential, FuzzCorpusStandardSubset)
{
    // The standard-config subset of the fixed-seed 5000-case fuzz
    // corpus (the budget tools/check.sh address replays): for every
    // case whose configuration is a plain cache (no aux, virtual
    // lines, prefetch or bypass), the stack pass must agree with
    // exact replay across a small sets x assoc x line-size lattice
    // around the fuzzed geometry.
    // The fuzzed aux/temporal/write-buffer/classifier knobs vary
    // freely, proving the pass folds exactly the fields that cannot
    // matter.
    const check::TraceFuzzer fuzzer;
    std::size_t eligible = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const check::FuzzCase c = fuzzer.makeCase(i);
        if (!harness::stackFamilyEligible(c.config))
            continue;
        ++eligible;

        // The fuzzed line size and one other share the engine, so
        // two line groups see the same records.
        const std::uint32_t other_line =
            c.config.lineBytes == 64 ? 16 : c.config.lineBytes * 2;
        std::vector<core::Config> cfgs;
        for (const std::uint32_t line : {c.config.lineBytes, other_line}) {
            for (const std::uint64_t size_mult : {1, 4}) {
                for (const std::uint32_t ways : {1u, 2u, 4u}) {
                    core::Config cfg = c.config;
                    // Keep the fuzzed set count (and 4x it) while the
                    // associativity sweeps, so points share set
                    // counts.
                    cfg.lineBytes = line;
                    cfg.cacheSizeBytes = c.config.cacheSizeBytes /
                                         c.config.lineBytes * line *
                                         size_mult * ways;
                    cfg.assoc = ways;
                    cfg.validate();
                    cfgs.push_back(std::move(cfg));
                }
            }
        }
        std::vector<sim::StackPoint> points;
        for (const auto &cfg : cfgs)
            points.push_back(harness::stackPointOf(cfg));
        sim::StackDistanceEngine eng(points);
        eng.feed(c.trace.data(), c.trace.size());
        for (const auto &cfg : cfgs)
            expectStackMatchesReplay(eng, c.trace, cfg);
        if (HasFatalFailure() || HasNonfatalFailure())
            FAIL() << "diverged at fuzz case " << i << " (seed "
                   << c.seed << ")";
    }
    // The subset must be a real corpus, not a vacuous filter.
    EXPECT_GE(eligible, 100u);
}

// --- StackProperty: Mattson inclusion -------------------------------

TEST(StackProperty, MissesMonotoneNonIncreasingInAssocAtFixedSets)
{
    // The inclusion theorem proper: at a fixed set count, the A-way
    // LRU content is a subset of the (A+1)-way content, so misses
    // can only shrink as ways are added.
    const auto &t = mvTrace();
    std::vector<sim::StackPoint> points;
    for (const std::uint32_t ways : {1u, 2u, 4u, 8u})
        points.push_back({std::uint64_t{128} * 32 * ways, 32, ways});
    sim::StackDistanceEngine eng(points);
    trace::MemoryTraceSource src(t);
    eng.run(src);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LE(eng.missCount(points[i]),
                  eng.missCount(points[i - 1]))
            << "assoc " << points[i].assoc;
    }
}

TEST(StackProperty, MissRatioMonotoneNonIncreasingInSizeAtFixedAssoc)
{
    // Mattson inclusion as the figures use it: growing the cache at
    // fixed associativity never hurts on the paper's workloads.
    const auto &t = mvTrace();
    for (const std::uint32_t ways : {1u, 2u}) {
        std::vector<sim::StackPoint> points;
        for (std::uint64_t kb = 1; kb <= 64; kb *= 2)
            points.push_back({kb * 1024, 32, ways});
        sim::StackDistanceEngine eng(points);
        trace::MemoryTraceSource src(t);
        eng.run(src);
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_LE(eng.missCount(points[i]),
                      eng.missCount(points[i - 1]))
                << "assoc " << ways << ", size "
                << points[i].cacheSizeBytes;
        }
    }
}

// --- StackAnalytic: closed-form independent-reference oracle --------

/**
 * Steady-state miss ratio of an LRU cache of @p cache_lines lines
 * under the independent reference model with uniform references over
 * @p population_lines distinct lines (cache_lines <= population):
 * by symmetry the cache holds a uniform random subset, so a
 * reference hits with probability C/M and
 *
 *     miss ratio = 1 - C / M.
 *
 * (The set-associative bit-selected case factors: each set sees a
 * uniform stream over M/S lines with A ways, giving 1 - A/(M/S) =
 * 1 - C/M again.) This is the "Analytical Studies of Strategies for
 * Utilization of Cache Memory" closed form, reimplemented here from
 * the formula alone — it exercises no simulator or engine code.
 */
double
irmUniformMissRatio(std::uint64_t cache_lines,
                    std::uint64_t population_lines)
{
    return 1.0 - static_cast<double>(cache_lines) /
                     static_cast<double>(population_lines);
}

TEST(StackAnalytic, ConvergesToIndependentReferenceModel)
{
    constexpr std::uint64_t population = 4096; // distinct lines
    constexpr std::uint32_t line = 32;
    constexpr std::uint64_t records = 400000;

    trace::Trace t("uniform-irm");
    t.reserve(records);
    util::Rng rng(0x57ac4a11u);
    for (std::uint64_t i = 0; i < records; ++i)
        t.push(trace::Record{.addr = rng.nextBelow(population) * line});

    // Lattice spanning C = 256 .. 4096 cached lines, mixed sets and
    // ways. The last point holds the whole population: its steady-
    // state miss ratio is 0, measured misses are compulsory only.
    const std::vector<sim::StackPoint> points = {
        {8 * 1024, line, 1},   // C = 256
        {16 * 1024, line, 2},  // C = 512
        {32 * 1024, line, 1},  // C = 1024
        {64 * 1024, line, 4},  // C = 2048
        {128 * 1024, line, 1}, // C = 4096 = population
    };
    sim::StackDistanceEngine eng(points);
    eng.feed(t.data(), t.size());

    for (const auto &p : points) {
        const std::uint64_t cache_lines =
            p.cacheSizeBytes / p.lineBytes;
        const double expected =
            irmUniformMissRatio(cache_lines, population);
        EXPECT_NEAR(eng.missRatio(p), expected, 0.02)
            << "C = " << cache_lines;
    }
}

// --- StackRegression: cacheKey separates folded fields --------------

TEST(StackRegression, CacheKeySeparatesFieldsTheStackPassFolds)
{
    // A stack pass folds away the write buffer, timing and classifier
    // knobs (they cannot change standard-path miss counts). The
    // result caches and manifests must still keep such configs apart:
    // cacheKey() serializes every simulation-relevant field.
    const core::Config a = core::presets().get("standard");
    core::Config b = a;
    b.writeBufferEntries = 64;
    core::Config c = a;
    c.timing.memoryLatency += 10;
    core::Config d = a;
    d.classifyMisses = !a.classifyMisses;

    EXPECT_NE(a.cacheKey(), b.cacheKey());
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    EXPECT_NE(b.cacheKey(), c.cacheKey());

    // Distinct keys mean distinct manifest cells (the filename hashes
    // the key), even though a stack pass served both from one
    // traversal.
    EXPECT_NE(telemetry::manifestFileName("MV", a.cacheKey()),
              telemetry::manifestFileName("MV", b.cacheKey()));
}

TEST(StackRegression, FoldedConfigsGetDistinctManifestCells)
{
    core::Config a = core::presets().get("standard");
    core::Config b = a;
    b.writeBufferEntries = 64;
    b.name = "Stand. wb=64";

    const std::string dir =
        testing::TempDir() + "sac_stack_manifest_test";
    std::filesystem::remove_all(dir);

    harness::Runner r;
    auto req =
        testref::request({mvWorkload()}, {a, b}, harness::missRatioMetric());
    req.telemetry.manifestDir = dir;
    const auto result = r.run(req);
    // Same geometry: one traversal covers both cells.
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cells"), 2u);
    EXPECT_EQ(r.runsExecuted(), 0u);

    // Each cell carries the stats a direct engine pass implies.
    sim::StackDistanceEngine eng(
        {harness::stackPointOf(a), harness::stackPointOf(b)});
    trace::MemoryTraceSource src(mvTrace());
    eng.run(src);
    EXPECT_TRUE(result.at(0, 0).stats == harness::stackStatsFor(eng, a));
    EXPECT_TRUE(result.at(0, 1).stats == harness::stackStatsFor(eng, b));

    const auto &pa = result.at(0, 0).manifestPath;
    const auto &pb = result.at(0, 1).manifestPath;
    ASSERT_FALSE(pa.empty());
    ASSERT_FALSE(pb.empty());
    EXPECT_NE(pa, pb); // distinct cells, not one overwritten file

    std::ifstream in(pa);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("stack-single-pass"),
              std::string::npos);
    EXPECT_NE(content.str().find("family_size"), std::string::npos);
    std::filesystem::remove_all(dir);
}

// --- StackFamily: harness integration -------------------------------

TEST(StackFamily, EligibilityFollowsTheStandardFeaturePath)
{
    EXPECT_TRUE(
        harness::stackFamilyEligible(core::presets().get("standard")));
    EXPECT_TRUE(
        harness::stackFamilyEligible(core::presets().get("2way")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("victim")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("soft")));
    EXPECT_FALSE(harness::stackFamilyEligible(
        core::presets().get("soft-prefetch")));
    EXPECT_FALSE(
        harness::stackFamilyEligible(core::presets().get("bypass")));
    // No aux, virtual lines, prefetch or bypass, but a different
    // replacement policy: the non-temporal preference must disqualify.
    EXPECT_FALSE(harness::stackFamilyEligible(
        core::presets().get("simplified-soft-2way")));
    // Every eligible preset is a plain LRU cache, and the eligible
    // presets are exactly standard and 2way (sanity sweep).
    std::vector<std::string> eligible;
    for (const auto &p : core::presets().all()) {
        if (!harness::stackFamilyEligible(p.config))
            continue;
        eligible.push_back(p.key);
        EXPECT_EQ(p.config.auxLines, 0u) << p.key;
        EXPECT_FALSE(p.config.virtualLines) << p.key;
        EXPECT_FALSE(p.config.prefetch) << p.key;
        EXPECT_EQ(p.config.bypass, core::BypassMode::None) << p.key;
        EXPECT_FALSE(p.config.preferNonTemporalReplacement) << p.key;
    }
    EXPECT_EQ(eligible, (std::vector<std::string>{"standard", "2way"}));
}

TEST(StackFamily, OnlyCountMetricsAreStackDerivable)
{
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::missRatioMetric()));
    EXPECT_TRUE(harness::stackDerivableMetric(
        harness::wordsPerAccessMetric()));
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::mainHitShareMetric()));
    EXPECT_TRUE(
        harness::stackDerivableMetric(harness::auxHitShareMetric()));
    EXPECT_FALSE(harness::stackDerivableMetric(harness::amatMetric()));
}

TEST(StackFamily, EightCellSweepIsExactlyOneTraversal)
{
    // The acceptance criterion: a standard-family 8-cell sweep
    // performs ONE trace traversal, zero exact replays, and renders
    // byte-identically to the per-config replay path.
    const auto configs = eightCellFamily();
    ASSERT_EQ(configs.size(), 8u);

    harness::Runner stacked;
    const auto table =
        stacked
            .run(testref::request({mvWorkload()}, configs,
                                  harness::missRatioMetric(), 4))
            .table;
    EXPECT_EQ(stacked.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(stacked.stackCounter("stack.pass.records"),
              mvTrace().size());
    EXPECT_EQ(stacked.stackCounter("stack.pass.cells"), 8u);
    EXPECT_EQ(stacked.stackCounter("stack.pass.fallback_cells"), 0u);
    EXPECT_EQ(stacked.runsExecuted(), 0u);

    const auto reference = testref::referenceTable(
        {mvWorkload()}, configs, harness::missRatioMetric());
    EXPECT_EQ(harness::toCsv(table), harness::toCsv(reference));
}

TEST(StackFamily, MruRecordsCounterCountsRepeats)
{
    // A trace that re-touches one line N times: N - 1 records stop at
    // the first set count of their line group.
    constexpr std::size_t n = 40;
    trace::Trace t("one-line");
    for (std::size_t i = 0; i < n; ++i)
        t.push(trace::Record{.addr = 0x1000});
    const harness::Workload w{"one-line", [t] { return t; }, nullptr};
    harness::Runner r;
    r.run(testref::request({w}, eightCellFamily(),
                           harness::missRatioMetric(), 2));
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.mru_records"), n - 1);
}

TEST(StackFamily, SecondSweepServesFromTheStackStore)
{
    const auto configs = eightCellFamily();
    harness::Runner r;
    r.run(testref::request({mvWorkload()}, configs,
                           harness::missRatioMetric(), 2));
    r.run(testref::request({mvWorkload()}, configs,
                           harness::wordsPerAccessMetric(), 2));
    // Still one traversal: the second sweep (even under a different
    // derivable metric) is served entirely from the stack store.
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cached_cells"), 8u);
    EXPECT_EQ(r.runsExecuted(), 0u);
}

TEST(StackFamily, TimingMetricFallsBackToExactReplay)
{
    const auto configs = eightCellFamily();
    harness::Runner r;
    r.run(testref::request({mvWorkload()}, configs, harness::amatMetric(),
                           2));
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), 8u);
}

TEST(StackFamily, MixedSweepSplitsFamilyFromFallback)
{
    // Four standard cells ride the stack pass; the soft and victim
    // cells fall back to exact replay, and the rendered table is
    // byte-identical to the all-replay reference.
    std::vector<core::Config> configs;
    for (const std::uint64_t kb : {4, 8})
        for (const std::uint32_t ways : {1u, 2u})
            configs.push_back(
                latticePoint(core::presets().get("standard"), kb * 1024, ways));
    configs.push_back(core::presets().get("soft"));
    configs.push_back(core::presets().get("victim"));

    harness::Runner r;
    const auto table =
        r.run(testref::request({mvWorkload()}, configs,
                               harness::missRatioMetric(), 2))
            .table;
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 1u);
    EXPECT_EQ(r.stackCounter("stack.pass.cells"), 4u);
    EXPECT_EQ(r.stackCounter("stack.pass.fallback_cells"), 2u);
    EXPECT_EQ(r.runsExecuted(), 2u);

    EXPECT_EQ(harness::toCsv(table),
              harness::toCsv(testref::referenceTable(
                  {mvWorkload()}, configs,
                  harness::missRatioMetric())));
}

TEST(StackFamily, SingleEligibleConfigIsNotWorthAPass)
{
    // A family of one gains nothing over a replay: no stack dispatch.
    harness::Runner r;
    r.run(testref::request({mvWorkload()},
                           {core::presets().get("standard")},
                           harness::missRatioMetric()));
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 0u);
    EXPECT_EQ(r.runsExecuted(), 1u);
}

TEST(StackFamily, StackStatsNeverPoisonTheExactCellCache)
{
    // After a stack-dispatched sweep, an AMAT sweep over the same
    // cells must replay them exactly — the stack store and the exact
    // cell cache are separate by design.
    const auto configs = eightCellFamily();
    harness::Runner r;
    const auto miss_table =
        r.run(testref::request({mvWorkload()}, configs,
                               harness::missRatioMetric(), 2))
            .table;
    EXPECT_EQ(r.runsExecuted(), 0u);
    const auto amat_table =
        r.run(testref::request({mvWorkload()}, configs,
                               harness::amatMetric(), 2))
            .table;
    EXPECT_EQ(r.runsExecuted(), 8u); // exact replays really happened

    EXPECT_EQ(harness::toCsv(amat_table),
              harness::toCsv(testref::referenceTable(
                  {mvWorkload()}, configs, harness::amatMetric())));
    EXPECT_EQ(harness::toCsv(miss_table),
              harness::toCsv(testref::referenceTable(
                  {mvWorkload()}, configs,
                  harness::missRatioMetric())));
}

TEST(StackFamily, PooledFamiliesMatchSerial)
{
    // Each line group of a workload's stack family is a task on the
    // request's pool, next to the exact cells. Four workloads of
    // different lengths over the lattice plus two exact-replayed
    // presets must render the same table and the same manifest bytes
    // at 1 and 4 jobs, with one traversal per workload and line size.
    std::vector<harness::Workload> ws;
    for (const std::int64_t n : {24, 48, 32, 40}) {
        ws.push_back({"MV" + std::to_string(n),
                      [n] {
                          return workloads::makeTaggedTrace(
                              workloads::buildMv(n));
                      },
                      nullptr});
    }
    const std::vector<core::Config> lattice = resweepLattice();
    const std::vector<core::Config> mixed = [&lattice] {
        std::vector<core::Config> out = lattice;
        out.push_back(core::presets().get("soft"));
        out.push_back(core::presets().get("victim"));
        return out;
    }();

    struct Outcome
    {
        std::string csv;
        std::map<std::string, std::string> manifests;
    };
    const auto sweep = [&ws](const std::vector<core::Config> &configs,
                             unsigned jobs, std::size_t replays) {
        harness::Runner r;
        auto req = testref::request(ws, configs,
                                    harness::missRatioMetric(), jobs);
        Outcome o;
        req.telemetry.sink = [&o](const std::string &file,
                                  const std::string &doc) {
            o.manifests[file] = doc;
        };
        o.csv = harness::toCsv(r.run(req).table);
        EXPECT_EQ(r.stackCounter("stack.pass.traversals"),
                  ws.size() * 3);
        EXPECT_EQ(r.runsExecuted(), replays);
        EXPECT_EQ(o.manifests.size(), ws.size() * configs.size());
        return o;
    };
    // Stack manifests carry no timing, so they match byte for byte;
    // exact cells record their replay seconds, which must differ.
    const auto untimed = [](std::map<std::string, std::string> docs) {
        for (auto &[file, doc] : docs) {
            auto json = util::Json::parse(doc);
            EXPECT_TRUE(json.has_value()) << file;
            if (!json)
                continue;
            json->set("timing", util::Json::object());
            std::ostringstream os;
            json->write(os);
            doc = os.str();
        }
        return docs;
    };
    const Outcome serial = sweep(lattice, 1, 0);
    const Outcome pooled = sweep(lattice, 4, 0);
    EXPECT_EQ(pooled.csv, serial.csv);
    EXPECT_TRUE(pooled.manifests == serial.manifests);
    const std::size_t replays = 2 * ws.size();
    const Outcome serial_mixed = sweep(mixed, 1, replays);
    const Outcome pooled_mixed = sweep(mixed, 4, replays);
    EXPECT_EQ(pooled_mixed.csv, serial_mixed.csv);
    EXPECT_TRUE(untimed(pooled_mixed.manifests) ==
                untimed(serial_mixed.manifests));

    // A workload whose build() throws fails the request with its
    // exception, never a crash: every task is waited for before it
    // re-raises. A workload without stream is materialized before any
    // task starts, so there the throw leaves run() directly; a
    // workload whose stream throws fails inside its traversal task,
    // so there the throw surfaces from a worker while the other
    // workloads' traversals run. Each request has its own runner, so
    // the broken trace latch is entered once: re-entering a
    // std::call_once whose callable threw hangs under
    // ThreadSanitizer.
    std::vector<harness::Workload> broken = ws;
    broken.insert(broken.begin() + 2,
                  {"broken",
                   []() -> trace::Trace {
                       throw std::runtime_error("no trace");
                   },
                   nullptr});
    {
        harness::Runner r;
        EXPECT_THROW(r.run(testref::request(
                         broken, mixed, harness::missRatioMetric(), 4)),
                     std::runtime_error);
        // The runner stays usable for the workloads that do build.
        const auto after = r.run(testref::request(
            ws, lattice, harness::missRatioMetric(), 4));
        EXPECT_EQ(harness::toCsv(after.table), serial.csv);
    }
    {
        broken[2].stream = [](const trace::RecordSink &) {
            throw std::runtime_error("no stream");
        };
        harness::Runner r;
        EXPECT_THROW(r.run(testref::request(
                         broken, {core::presets().get("soft")},
                         harness::amatMetric(), 4)),
                     std::runtime_error);
    }
}

/** Resident MV workloads of different lengths (build only). */
std::vector<harness::Workload>
residentMvWorkloads()
{
    std::vector<harness::Workload> ws;
    for (const std::int64_t n : {24, 48, 32}) {
        ws.push_back({"MV" + std::to_string(n),
                      [n] {
                          return workloads::makeTaggedTrace(
                              workloads::buildMv(n));
                      },
                      nullptr});
    }
    return ws;
}

/** The re-sweep lattice, then the soft and victim presets. */
std::vector<core::Config>
latticeWithFallbacks()
{
    std::vector<core::Config> out = resweepLattice();
    out.push_back(core::presets().get("soft"));
    out.push_back(core::presets().get("victim"));
    return out;
}

/**
 * What a split-free executor yields for @p configs, whose first
 * @p n_stack entries form the stack family: the CSV of the miss-ratio
 * table and the manifest document of every stack cell, keyed by file
 * name. Each workload's stack cells come from ONE engine over the
 * whole family, its other cells from exact replay.
 */
struct SingleEngineReference
{
    std::string csv;
    std::map<std::string, std::string> stackManifests;
};

SingleEngineReference
singleEngineReference(const std::vector<harness::Workload> &ws,
                      const std::vector<core::Config> &configs,
                      std::size_t n_stack)
{
    const harness::Metric metric = harness::missRatioMetric();
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : configs)
        headers.push_back(cfg.name);
    util::Table table(std::move(headers));
    SingleEngineReference ref;
    for (const auto &w : ws) {
        const trace::Trace t = w.build();
        std::vector<sim::StackPoint> points;
        for (std::size_t ci = 0; ci < n_stack; ++ci)
            points.push_back(harness::stackPointOf(configs[ci]));
        sim::StackDistanceEngine eng(points);
        eng.feed(t.data(), t.size());
        const auto row = table.addRow();
        table.set(row, 0, w.name);
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const core::Config &cfg = configs[ci];
            const sim::RunStats stats =
                ci < n_stack ? harness::stackStatsFor(eng, cfg)
                             : core::simulateTrace(t, cfg);
            table.setNumber(row, ci + 1, metric.extract(stats),
                            metric.decimals);
            if (ci >= n_stack)
                continue;
            harness::ManifestCell mc;
            mc.workload = w.name;
            mc.config = &cfg;
            mc.stats = &stats;
            mc.stackFamilySize = n_stack;
            std::ostringstream os;
            telemetry::manifestJson(
                harness::renderCellManifest(
                    mc, harness::EngineTag::StackSinglePass))
                .write(os, 2);
            os << '\n';
            ref.stackManifests[telemetry::manifestFileName(
                w.name, cfg.cacheKey())] = os.str();
        }
    }
    ref.csv = harness::toCsv(table);
    return ref;
}

TEST(StackFamily, LineGroupsAreSeparateTraversals)
{
    // Each line group of a resident workload's stack family is a
    // traversal of its own: 3 per workload on the three-line-size
    // lattice, at any job count. The split must not change a byte:
    // the table and every stack manifest equal one engine's pass over
    // the whole family, and the soft and victim cells run once each.
    const auto ws = residentMvWorkloads();
    const auto configs = latticeWithFallbacks();
    const std::size_t n_stack = resweepLattice().size();
    const SingleEngineReference ref =
        singleEngineReference(ws, configs, n_stack);
    std::uint64_t records = 0;
    for (const auto &w : ws)
        records += w.build().size();

    for (const unsigned jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        harness::Runner r;
        auto req = testref::request(ws, configs,
                                    harness::missRatioMetric(), jobs);
        std::map<std::string, std::string> docs;
        req.telemetry.sink = [&docs](const std::string &file,
                                     const std::string &doc) {
            docs[file] = doc;
        };
        EXPECT_EQ(harness::toCsv(r.run(req).table), ref.csv);
        EXPECT_EQ(docs.size(), ws.size() * configs.size());
        for (const auto &[file, doc] : ref.stackManifests)
            EXPECT_EQ(docs[file], doc) << file;
        EXPECT_EQ(r.stackCounter("stack.pass.traversals"), ws.size() * 3);
        EXPECT_EQ(r.stackCounter("stack.pass.records"), records * 3);
        EXPECT_EQ(r.stackCounter("stack.pass.cells"), ws.size() * n_stack);
        EXPECT_EQ(r.runsExecuted(), ws.size() * 2);
    }
}

TEST(StackFamily, StreamedLineGroupsSplitOverTraversals)
{
    // One streamed workload at 4 jobs: its five units (three line
    // groups, two exact cells) are dealt over four traversals, each
    // regenerating the trace, and the workload is never materialized.
    std::atomic<int> builds{0};
    const harness::Workload w{
        "MV40",
        [&builds] {
            ++builds;
            return workloads::makeTaggedTrace(workloads::buildMv(40));
        },
        [](const trace::RecordSink &sink) {
            workloads::streamTaggedTrace(workloads::buildMv(40), sink);
        }};
    const auto configs = latticeWithFallbacks();
    const SingleEngineReference ref =
        singleEngineReference({w}, configs, resweepLattice().size());
    builds = 0;

    harness::Runner r;
    const auto result = r.run(
        testref::request({w}, configs, harness::missRatioMetric(), 4));
    EXPECT_EQ(harness::toCsv(result.table), ref.csv);
    EXPECT_EQ(builds.load(), 0) << "a streamed trace materialized";
    EXPECT_EQ(r.tracesGenerated(), 4u);
    EXPECT_EQ(r.stackCounter("stack.pass.traversals"), 3u);
    EXPECT_EQ(r.runsExecuted(), 2u);
}

TEST(StackFamily, ConcurrentRequestsShareLineGroups)
{
    // Two requests over one resident trace overlap in the 32-byte
    // line group: {16, 32} B and {32, 64} B. Whichever request claims
    // the shared group first computes it while the other waits, so a
    // round costs three traversals, never four.
    const std::vector<core::Config> lattice = resweepLattice();
    const auto lines = [&lattice](std::uint32_t a, std::uint32_t b) {
        std::vector<core::Config> out;
        for (const auto &cfg : lattice) {
            if (cfg.lineBytes == a || cfg.lineBytes == b)
                out.push_back(cfg);
        }
        return out;
    };
    const std::vector<core::Config> a = lines(16, 32);
    const std::vector<core::Config> b = lines(32, 64);
    const harness::Workload w = mvWorkload();
    const std::string ref_a = harness::toCsv(
        testref::referenceTable({w}, a, harness::missRatioMetric()));
    const std::string ref_b = harness::toCsv(
        testref::referenceTable({w}, b, harness::missRatioMetric()));

    for (int round = 0; round < 8; ++round) {
        harness::Runner runner;
        runner.warmup({w});
        std::string csv_a, csv_b;
        std::thread ta([&] {
            csv_a = harness::toCsv(
                runner
                    .run(testref::request(
                        {w}, a, harness::missRatioMetric(), 2))
                    .table);
        });
        std::thread tb([&] {
            csv_b = harness::toCsv(
                runner
                    .run(testref::request(
                        {w}, b, harness::missRatioMetric(), 2))
                    .table);
        });
        ta.join();
        tb.join();
        EXPECT_EQ(runner.stackCounter("stack.pass.traversals"), 3u)
            << "round " << round;
        EXPECT_EQ(runner.runsExecuted(), 0u) << "round " << round;
        EXPECT_EQ(csv_a, ref_a) << "round " << round;
        EXPECT_EQ(csv_b, ref_b) << "round " << round;
    }
}

} // namespace
