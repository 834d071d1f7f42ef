/**
 * @file
 * Tests of the live-point checkpoint library (src/sim/checkpoint.hh):
 * snapshot/restore round-trips of the underlying CacheArray and
 * WriteBuffer images, simulator state export/import, the `.saclp`
 * save/load cycle with its full invalidation matrix (stale trace
 * hash, foreign config, different geometry, version bump, truncation,
 * corruption — all Stale, never a wrong restore), and the checkpoint
 * differential: runCheckpointed() must be bit-identical in RunStats,
 * per-window samples and final architectural state to run() with
 * functional warming, across presets, the fuzz corpus, gap-end edge
 * cases and adaptive/capped runs. Closes with sampled-livepoint
 * Runner::run integration: cold sweeps warm-and-write, warm sweeps
 * hit, corrupt libraries count stale and still produce cells equal to
 * a direct sim::SampledEngine run, and each manifest's "checkpoint"
 * block reports its own cell's outcome.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_array.hh"
#include "src/check/auditor.hh"
#include "src/check/trace_fuzzer.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/sim/write_buffer.hh"
#include "src/trace/trace_source.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"
#include "tests/shadowed_sim.hh"

namespace {

using namespace sac;
using LoadResult = sim::CheckpointLibrary::LoadResult;

// ---------------------------------------------------------------------
// Building blocks: array and write-buffer images.

TEST(CacheArraySnapshotTest, RoundTripRestoresLinesAndClock)
{
    cache::CacheArray a(1024, 32, 2);
    for (const Addr l : {0x1ull, 0x11ull, 0x21ull, 0x2ull, 0x13ull})
        a.insert(l, cache::ReplacementPolicy::Lru);
    a.find(0x11)->setDirty(true);
    a.find(0x21)->setTemporal(true);
    a.find(0x2)->setPrefetched(true);
    // 0x1 was evicted by the set-1 conflicts above (16 sets, 2 ways);
    // bump a line that is still resident.
    const auto touched = a.findWay(0x11);
    ASSERT_TRUE(touched.has_value());
    a.touch(a.setIndexOf(0x11), *touched);

    const auto lines = a.snapshotLines();
    ASSERT_EQ(lines.size(),
              static_cast<std::size_t>(a.numSets()) * a.assoc());

    cache::CacheArray b(1024, 32, 2);
    b.insert(0x7f, cache::ReplacementPolicy::Lru); // overwritten
    b.restoreLines(lines, a.lruClock());

    EXPECT_EQ(b.lruClock(), a.lruClock());
    EXPECT_EQ(b.validCount(), a.validCount());
    EXPECT_FALSE(b.contains(0x7f));
    for (std::uint32_t s = 0; s < a.numSets(); ++s) {
        for (std::uint32_t w = 0; w < a.assoc(); ++w) {
            const cache::LineState la = a.line(s, w).state();
            const cache::LineState lb = b.line(s, w).state();
            EXPECT_EQ(lb.valid, la.valid);
            if (!la.valid)
                continue;
            EXPECT_EQ(lb.lineAddr, la.lineAddr);
            EXPECT_EQ(lb.dirty, la.dirty);
            EXPECT_EQ(lb.temporal, la.temporal);
            EXPECT_EQ(lb.prefetched, la.prefetched);
            EXPECT_EQ(lb.lruStamp, la.lruStamp);
        }
    }
    // The restored array keeps evicting the same victims: the LRU
    // stamps and clock are part of the architectural state.
    EXPECT_EQ(b.victimWay(a.setIndexOf(0x1),
                          cache::ReplacementPolicy::Lru),
              a.victimWay(a.setIndexOf(0x1),
                          cache::ReplacementPolicy::Lru));
}

TEST(WriteBufferSnapshotTest, RoundTripPreservesFifoAndCounters)
{
    sim::WriteBuffer wb(4);
    wb.push(32);
    wb.push(64);
    wb.push(96);
    EXPECT_EQ(wb.pop(), 32u); // head advances: ring is now offset
    wb.push(128);
    wb.noteFullStall();

    const auto snap = wb.snapshot();
    EXPECT_EQ(snap.pendingBytes.size(), 3u);
    EXPECT_EQ(snap.totalBytesPushed, 320u);
    EXPECT_EQ(snap.fullStalls, 1u);

    sim::WriteBuffer other(4);
    other.push(7); // stale content the restore must clear
    other.restore(snap);
    EXPECT_EQ(other.occupancy(), 3u);
    EXPECT_EQ(other.totalBytesPushed(), 320u);
    EXPECT_EQ(other.fullStalls(), 1u);
    // FIFO order survives the ring-head normalization.
    EXPECT_EQ(other.pop(), 64u);
    EXPECT_EQ(other.pop(), 96u);
    EXPECT_EQ(other.pop(), 128u);
    EXPECT_TRUE(other.empty());
}

TEST(ArchStateTest, ExportImportIsBitIdenticalMidStream)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(40));
    const core::Config cfg = core::presets().get("soft");

    test::ShadowedCache a(cfg);
    a.runWarming(t.data(), 1500);
    test::ShadowedCache b(cfg);
    b.importState(a.exportState());
    EXPECT_EQ(check::stateDifference(a, b), "");

    // Both continue detailed from the restored point and stay
    // bit-identical in state AND statistics.
    a.runDetailed(t.data() + 1500, 500);
    b.runDetailed(t.data() + 1500, 500);
    EXPECT_EQ(check::stateDifference(a, b), "");
    EXPECT_TRUE(a.stats() == b.stats());
    a.finish();
    b.finish();
    EXPECT_TRUE(a.stats() == b.stats());
}

// ---------------------------------------------------------------------
// Trace hashing and library paths.

TEST(CheckpointKeyTest, TraceHashTracksContentNotName)
{
    auto t1 = workloads::makeTaggedTrace(workloads::buildMv(20), 1);
    auto t2 = workloads::makeTaggedTrace(workloads::buildMv(20), 2);
    EXPECT_NE(sim::hashTrace(t1), sim::hashTrace(t2))
        << "regenerating with a new seed must invalidate the library";

    auto renamed = t1;
    renamed.setName("something-else");
    EXPECT_EQ(sim::hashTrace(renamed), sim::hashTrace(t1))
        << "the name is presentation, not identity";
}

TEST(CheckpointKeyTest, PathForSanitizesAndEncodesGeometry)
{
    sim::CheckpointKey key;
    key.configKey = "cs=1024;ls=32";
    key.window = 128;
    key.stride = 1024;
    key.warmup = 256;
    const std::string p = sim::CheckpointLibrary::pathFor(
        "/tmp/lib", "we ird/(name)", key);
    EXPECT_EQ(p.rfind("/tmp/lib/cfg-", 0), 0u) << p;
    EXPECT_NE(p.find("-w128-s1024-u256.saclp"), std::string::npos) << p;
    const std::string file = p.substr(p.find_last_of('/') + 1);
    EXPECT_EQ(file.find_first_of(" /()"), std::string::npos) << file;

    // Different config families land in different directories.
    sim::CheckpointKey other = key;
    other.configKey = "cs=2048;ls=32";
    EXPECT_NE(sim::CheckpointLibrary::pathFor("/tmp/lib", "t", key),
              sim::CheckpointLibrary::pathFor("/tmp/lib", "t", other));
}

// ---------------------------------------------------------------------
// Save / load and the invalidation matrix.

/** A small built library plus the key and trace it was built for. */
struct BuiltLibrary
{
    trace::Trace trace{"ck"};
    core::Config config;
    sim::SamplingOptions opt;
    sim::CheckpointKey key;
    sim::CheckpointLibrary lib;
};

BuiltLibrary
makeBuiltLibrary(const std::string &preset = "soft")
{
    BuiltLibrary b;
    b.trace = workloads::makeTaggedTrace(workloads::buildMv(30));
    b.config = core::presets().get(preset);
    b.opt.window = 128;
    b.opt.stride = 512;
    b.opt.warmup = 256;
    b.key.traceHash = sim::hashTrace(b.trace);
    b.key.configKey = b.config.cacheKey();
    b.key.window = b.opt.window;
    b.key.stride = b.opt.stride;
    b.key.warmup = b.opt.warmup;

    const sim::SampledEngine engine(b.opt);
    core::SoftwareAssistedCache warmer(b.config);
    trace::MemoryTraceSource src(b.trace);
    engine.buildLibrary(src, warmer, b.lib);
    return b;
}

TEST(CheckpointLibraryTest, SaveLoadRoundTripIsByteStable)
{
    const auto b = makeBuiltLibrary();
    ASSERT_GT(b.lib.size(), 2u);
    const std::string path =
        testing::TempDir() + "/ck_roundtrip.saclp";

    const std::uint64_t bytes = b.lib.save(path, b.key);
    ASSERT_GT(bytes, 0u);

    sim::CheckpointLibrary loaded;
    ASSERT_EQ(loaded.load(path, b.key), LoadResult::Hit);
    EXPECT_EQ(loaded.size(), b.lib.size());
    EXPECT_EQ(loaded.loadedBytes(), bytes);

    // Re-serializing the loaded library reproduces the file
    // byte-for-byte: nothing was lost or reordered in transit.
    const std::string path2 =
        testing::TempDir() + "/ck_roundtrip2.saclp";
    ASSERT_EQ(loaded.save(path2, b.key), bytes);
    std::ifstream f1(path, std::ios::binary);
    std::ifstream f2(path2, std::ios::binary);
    const std::string c1((std::istreambuf_iterator<char>(f1)),
                         std::istreambuf_iterator<char>());
    const std::string c2((std::istreambuf_iterator<char>(f2)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(c1, c2);
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(CheckpointLibraryTest, MissingFileLoadsAsMissing)
{
    sim::CheckpointLibrary lib;
    EXPECT_EQ(lib.load(testing::TempDir() + "/no_such_dir/x.saclp",
                       sim::CheckpointKey{}),
              LoadResult::Missing);
    EXPECT_TRUE(lib.empty());
}

TEST(CheckpointLibraryTest, KeyMismatchesLoadAsStale)
{
    const auto b = makeBuiltLibrary();
    const std::string path = testing::TempDir() + "/ck_key.saclp";
    ASSERT_GT(b.lib.save(path, b.key), 0u);

    const auto expect_stale = [&](sim::CheckpointKey k,
                                  const char *what) {
        sim::CheckpointLibrary lib;
        EXPECT_EQ(lib.load(path, k), LoadResult::Stale) << what;
        EXPECT_TRUE(lib.empty()) << what;
    };
    auto k = b.key;
    k.traceHash ^= 1; // the trace was regenerated in place
    expect_stale(k, "stale trace hash");
    k = b.key;
    k.configKey = core::presets().get("standard").cacheKey();
    expect_stale(k, "foreign config family");
    k = b.key;
    k.window += 1;
    expect_stale(k, "different window");
    k = b.key;
    k.stride *= 2;
    expect_stale(k, "different stride");
    k = b.key;
    k.warmup += 64;
    expect_stale(k, "different warmup");
    std::remove(path.c_str());
}

TEST(CheckpointLibraryTest, LoadAnyTraceDefersOnlyTheTraceHash)
{
    const auto b = makeBuiltLibrary();
    const std::string path = testing::TempDir() + "/ck_anytrace.saclp";
    ASSERT_GT(b.lib.save(path, b.key), 0u);

    // Another trace's hash: load() rejects the file, loadAnyTrace()
    // takes it and reports the hash it was built for.
    auto k = b.key;
    k.traceHash ^= 1;
    sim::CheckpointLibrary lib;
    EXPECT_EQ(lib.load(path, k), LoadResult::Stale);
    EXPECT_TRUE(lib.empty());
    ASSERT_EQ(lib.loadAnyTrace(path, k), LoadResult::Hit);
    EXPECT_EQ(lib.traceHash(), b.key.traceHash);
    EXPECT_EQ(lib.size(), b.lib.size());

    // Every other key field is still checked.
    k = b.key;
    k.configKey = core::presets().get("standard").cacheKey();
    EXPECT_EQ(lib.loadAnyTrace(path, k), LoadResult::Stale);
    EXPECT_TRUE(lib.empty());
    k = b.key;
    k.warmup += 64;
    EXPECT_EQ(lib.loadAnyTrace(path, k), LoadResult::Stale);

    // A file of the previous format version is stale.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_EQ(lib.loadAnyTrace(path, b.key), LoadResult::Stale);
    EXPECT_EQ(lib.load(path, b.key), LoadResult::Stale);
    std::remove(path.c_str());
}

TEST(CheckpointLibraryTest, CorruptFilesLoadAsStaleNeverWrong)
{
    const auto b = makeBuiltLibrary();
    const std::string path = testing::TempDir() + "/ck_corrupt.saclp";
    ASSERT_GT(b.lib.save(path, b.key), 0u);
    std::ifstream in(path, std::ios::binary);
    const std::string pristine((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(pristine.size(), 64u);

    const auto write_and_expect_stale = [&](std::string contents,
                                            const char *what) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        out.close();
        sim::CheckpointLibrary lib;
        EXPECT_EQ(lib.load(path, b.key), LoadResult::Stale) << what;
        EXPECT_TRUE(lib.empty()) << what;
    };

    auto bad = pristine;
    bad[0] ^= 0x5a; // magic
    write_and_expect_stale(bad, "bad magic");
    bad = pristine;
    bad[4] ^= 0x01; // version bump
    write_and_expect_stale(bad, "version bump");
    bad = pristine;
    bad[bad.size() / 2] ^= 0x10; // payload corruption -> checksum
    write_and_expect_stale(bad, "flipped payload byte");
    bad = pristine.substr(0, pristine.size() / 2); // truncated write
    write_and_expect_stale(bad, "truncated file");
    bad = pristine.substr(0, 10); // shorter than the header
    write_and_expect_stale(bad, "stub file");
    bad = pristine + std::string(8, '\0'); // trailing garbage
    write_and_expect_stale(bad, "trailing bytes");

    // The pristine bytes still load: the rejections above were about
    // the files, not the key.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(pristine.data(),
              static_cast<std::streamsize>(pristine.size()));
    out.close();
    sim::CheckpointLibrary lib;
    EXPECT_EQ(lib.load(path, b.key), LoadResult::Hit);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The checkpoint differential: restored replay == warmed replay.

void
expectSamplesEqual(const sim::SampleStats &x, const sim::SampleStats &y)
{
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.variance(), y.variance());
}

/**
 * Run the same (trace, config, geometry) once with functional warming
 * and once from a freshly built library, then assert bit-identity:
 * RunStats, per-window samples, window/record accounting and the
 * final architectural state.
 */
void
expectCheckpointedMatchesWarmed(const core::Config &cfg,
                                const trace::Trace &t,
                                const sim::SamplingOptions &opt)
{
    const sim::SampledEngine engine(opt);
    ASSERT_TRUE(engine.checkpointable());

    sim::CheckpointLibrary lib;
    {
        core::SoftwareAssistedCache warmer(cfg);
        trace::MemoryTraceSource src(t);
        engine.buildLibrary(src, warmer, lib);
    }

    core::SoftwareAssistedCache warmed(cfg);
    core::SoftwareAssistedCache restored(cfg);
    trace::MemoryTraceSource src_w(t);
    trace::MemoryTraceSource src_r(t);
    const auto rep_w = engine.run(src_w, warmed);
    const auto rep_r = engine.runCheckpointed(src_r, restored, lib);

    EXPECT_TRUE(rep_r.detailed == rep_w.detailed)
        << "RunStats diverged on " << cfg.cacheKey();
    EXPECT_EQ(check::stateDifference(warmed, restored), "");
    EXPECT_EQ(rep_r.windows, rep_w.windows);
    EXPECT_EQ(rep_r.recordsDetailed, rep_w.recordsDetailed);
    EXPECT_EQ(rep_r.recordsTotal, rep_w.recordsTotal);
    EXPECT_EQ(rep_r.recordsWarmed, 0u)
        << "the restore path must never functionally warm";
    EXPECT_EQ(rep_r.exact, rep_w.exact);
    expectSamplesEqual(rep_r.missRatio, rep_w.missRatio);
    expectSamplesEqual(rep_r.amat, rep_w.amat);
    expectSamplesEqual(rep_r.wordsPerAccess, rep_w.wordsPerAccess);
}

TEST(CheckpointDifferential, BitIdenticalOnPresets)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    sim::SamplingOptions opt;
    opt.window = 256;
    opt.stride = 1024;
    opt.warmup = 512;
    for (const auto &key :
         {"standard", "soft-temporal", "soft-spatial", "soft",
          "soft-prefetch"}) {
        SCOPED_TRACE(key);
        expectCheckpointedMatchesWarmed(core::presets().get(key), t,
                                        opt);
    }
}

TEST(CheckpointDifferential, BitIdenticalOnFuzzCorpus)
{
    sim::SamplingOptions opt;
    opt.window = 16;
    opt.stride = 64;
    opt.warmup = 32;
    const check::TraceFuzzer fuzzer;
    int eligible = 0;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto c = fuzzer.makeCase(i);
        if (c.trace.size() < opt.stride)
            continue;
        ++eligible;
        SCOPED_TRACE("fuzz case " + std::to_string(i));
        expectCheckpointedMatchesWarmed(c.config, c.trace, opt);
    }
    ASSERT_GE(eligible, 10)
        << "fuzz corpus must provide enough checkpoint-eligible cases";
}

TEST(CheckpointDifferential, BitIdenticalWhenStreamEndsInTheGap)
{
    // 7320 records, windows every 2048: the stream ends at 7320,
    // inside the fourth period's gap. With warmup 512 it ends in the
    // skip phase; with warmup == gap it ends mid-warming. Both need
    // the builder's trailing live-point for the restored finish() to
    // seal the same write-buffer/clock state.
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    ASSERT_NE(t.size() % 2048, 0u);

    sim::SamplingOptions ends_in_skip;
    ends_in_skip.window = 256;
    ends_in_skip.stride = 2048;
    ends_in_skip.warmup = 512;
    sim::SamplingOptions ends_in_warm = ends_in_skip;
    ends_in_warm.warmup = ends_in_warm.stride; // clamped: no skip

    for (const auto *opt : {&ends_in_skip, &ends_in_warm}) {
        SCOPED_TRACE(opt == &ends_in_skip ? "ends-in-skip"
                                          : "ends-in-warm");
        expectCheckpointedMatchesWarmed(core::presets().get("soft"), t,
                                        *opt);
    }
}

TEST(CheckpointDifferential, BitIdenticalWhereverTheStreamEnds)
{
    // Every end position over three periods and a window: inside a
    // window, at its end, inside the skip, inside the warm-up and at
    // a period boundary, for a geometry with both skip and warm-up,
    // one whose warm-up covers the gap (no skip) and one with no
    // warm-up (all skip).
    const auto full = workloads::makeTaggedTrace(workloads::buildMv(30));
    sim::SamplingOptions opt;
    opt.window = 8;
    opt.stride = 32;
    const std::uint64_t longest = 3 * opt.stride + opt.window + 1;
    ASSERT_GE(full.size(), longest);

    for (const std::uint64_t warmup : {8u, 40u, 0u}) {
        opt.warmup = warmup;
        const sim::SampledEngine engine(opt);
        trace::Trace t("prefix");
        for (std::uint64_t len = 0; len <= longest; ++len) {
            SCOPED_TRACE("warmup " + std::to_string(warmup) +
                         ", length " + std::to_string(len));
            expectCheckpointedMatchesWarmed(
                core::presets().get("soft-prefetch"), t, opt);

            // One live-point per window start reached, plus a
            // trailing one when the stream ends at or inside a gap.
            sim::CheckpointLibrary lib;
            core::SoftwareAssistedCache warmer(
                core::presets().get("soft-prefetch"));
            trace::MemoryTraceSource src(t);
            engine.buildLibrary(src, warmer, lib);
            const std::uint64_t trailing =
                len % opt.stride >= opt.window ? 1 : 0;
            EXPECT_EQ(lib.size(), len / opt.stride + 1 + trailing);

            if (len < longest)
                t.push(full[len]);
        }
    }
}

TEST(CheckpointDifferential, BitIdenticalOnAdaptiveAndCappedRuns)
{
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(60));
    const core::Config cfg = core::presets().get("soft");

    sim::SamplingOptions capped;
    capped.window = 128;
    capped.stride = 512;
    capped.warmup = 128;
    capped.maxWindows = 3;
    expectCheckpointedMatchesWarmed(cfg, t, capped);

    sim::SamplingOptions adaptive = capped;
    adaptive.maxWindows = 0;
    adaptive.targetRelativeError = 0.5;
    adaptive.minWindows = 2;
    expectCheckpointedMatchesWarmed(cfg, t, adaptive);
}

TEST(CheckpointDifferential, ShortTraceFallsBackToExactIdentically)
{
    // Shorter than one window: both paths simulate everything at full
    // detail from the fresh-state checkpoint 0.
    const auto t = workloads::makeTaggedTrace(workloads::buildMv(5));
    sim::SamplingOptions opt;
    opt.window = t.size() + 100;
    opt.stride = 4 * opt.window;
    opt.warmup = 64;
    expectCheckpointedMatchesWarmed(core::presets().get("soft"), t,
                                    opt);
}

TEST(CheckpointDifferential, LoadedLibraryReplaysLikeBuiltLibrary)
{
    // The full production cycle: build -> save -> load -> restore.
    auto b = makeBuiltLibrary();
    const std::string path = testing::TempDir() + "/ck_replay.saclp";
    ASSERT_GT(b.lib.save(path, b.key), 0u);
    sim::CheckpointLibrary loaded;
    ASSERT_EQ(loaded.load(path, b.key), LoadResult::Hit);

    const sim::SampledEngine engine(b.opt);
    core::SoftwareAssistedCache warmed(b.config);
    core::SoftwareAssistedCache restored(b.config);
    trace::MemoryTraceSource src_w(b.trace);
    trace::MemoryTraceSource src_r(b.trace);
    const auto rep_w = engine.run(src_w, warmed);
    const auto rep_r = engine.runCheckpointed(src_r, restored, loaded);
    EXPECT_TRUE(rep_r.detailed == rep_w.detailed);
    EXPECT_EQ(check::stateDifference(warmed, restored), "");
    std::remove(path.c_str());
}

TEST(CheckpointDifferential, NonCheckpointableGeometryIsRejected)
{
    sim::SamplingOptions opt;
    opt.window = 256;
    opt.stride = 256; // contiguous: nothing to warm, nothing to skip
    const sim::SampledEngine engine(opt);
    EXPECT_FALSE(engine.checkpointable());
}

// ---------------------------------------------------------------------
// Runner integration: the --checkpoint-dir path end to end.

harness::Workload
checkpointWorkload()
{
    return {"MV-ck", [] {
                auto t = workloads::makeTaggedTrace(
                    workloads::buildMv(40));
                t.setName("MV-ck");
                return t;
            },
            nullptr};
}

sim::SamplingOptions
runnerSamplingOptions()
{
    sim::SamplingOptions opt;
    opt.window = 128;
    opt.stride = 1024;
    opt.warmup = 256;
    return opt;
}

/**
 * The reference: one plain sampled replay per config, straight
 * through sim::SampledEngine (no Runner, no library).
 */
std::vector<sim::SampleReport>
directReports(const std::vector<core::Config> &cfgs,
              const sim::SamplingOptions &opt)
{
    const trace::Trace t = checkpointWorkload().build();
    std::vector<sim::SampleReport> out;
    for (const auto &cfg : cfgs) {
        trace::MemoryTraceSource src(t);
        core::SoftwareAssistedCache sim(cfg);
        out.push_back(sim::SampledEngine(opt).run(src, sim));
    }
    return out;
}

/** A sampled-livepoint request of the checkpoint workload. */
harness::SweepResult
runLivepoint(harness::Runner &r, const std::vector<core::Config> &cfgs,
             const sim::SamplingOptions &opt, const std::string &dir,
             bool rebuild = false)
{
    harness::SweepRequest req;
    req.workloads = {checkpointWorkload()};
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = harness::EngineSelect::SampledLivepoint;
    req.sampling = opt;
    req.checkpointDir = dir;
    req.checkpointRebuild = rebuild;
    return r.run(req);
}

void
expectCellsEqual(const harness::SweepResult &result,
                 const std::vector<sim::SampleReport> &reference)
{
    ASSERT_EQ(result.cells.size(), reference.size());
    for (std::size_t ci = 0; ci < reference.size(); ++ci) {
        SCOPED_TRACE("cell " + std::to_string(ci));
        ASSERT_TRUE(result.cells[ci].report.has_value());
        const sim::SampleReport &got = *result.cells[ci].report;
        EXPECT_TRUE(got.detailed == reference[ci].detailed);
        EXPECT_EQ(got.windows, reference[ci].windows);
        expectSamplesEqual(got.missRatio, reference[ci].missRatio);
    }
}

TEST(CheckpointRunnerTest, ColdWarmAndRebuildSweeps)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/saclp_runner_lib";
    fs::remove_all(dir);

    const std::vector<core::Config> cfgs = {
        core::presets().get("standard"), core::presets().get("soft")};
    const auto opt = runnerSamplingOptions();

    const auto plain = directReports(cfgs, opt);

    // Cold: every cell misses, warms once and writes its library.
    harness::Runner cold;
    const auto first = runLivepoint(cold, cfgs, opt, dir);
    EXPECT_EQ(cold.checkpointCounter("checkpoint.misses"), 2u);
    EXPECT_EQ(cold.checkpointCounter("checkpoint.hits"), 0u);
    EXPECT_EQ(cold.checkpointCounter("checkpoint.stale"), 0u);
    EXPECT_GT(cold.checkpointCounter("checkpoint.bytes"), 0u);
    for (const auto &cell : first.cells)
        EXPECT_EQ(cell.engine, harness::EngineTag::SampledLivepoint);
    expectCellsEqual(first, plain);
    std::size_t files = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.path().extension() == ".saclp")
            ++files;
    }
    EXPECT_EQ(files, 2u) << "one .saclp per (trace, config family)";

    // Warm: a fresh process (Runner) serves every cell from the
    // library, bit-identically.
    harness::Runner warm;
    const auto second = runLivepoint(warm, cfgs, opt, dir);
    EXPECT_EQ(warm.checkpointCounter("checkpoint.hits"), 2u);
    EXPECT_EQ(warm.checkpointCounter("checkpoint.misses"), 0u);
    EXPECT_EQ(warm.checkpointCounter("checkpoint.stale"), 0u);
    expectCellsEqual(second, plain);

    // A different geometry keys differently: no false hits, the
    // library grows alongside the old one.
    harness::Runner other_geometry;
    auto opt2 = opt;
    opt2.stride = 2048;
    runLivepoint(other_geometry, cfgs, opt2, dir);
    EXPECT_EQ(other_geometry.checkpointCounter("checkpoint.hits"), 0u);
    EXPECT_EQ(other_geometry.checkpointCounter("checkpoint.misses"),
              2u);

    // --checkpoint-rebuild ignores the valid library and rewrites.
    harness::Runner rebuild;
    const auto third = runLivepoint(rebuild, cfgs, opt, dir, true);
    EXPECT_EQ(rebuild.checkpointCounter("checkpoint.hits"), 0u);
    EXPECT_EQ(rebuild.checkpointCounter("checkpoint.misses"), 2u);
    expectCellsEqual(third, plain);

    fs::remove_all(dir);
}

TEST(CheckpointRunnerTest, ManifestBlocksCountOnlyTheirOwnCell)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/saclp_block_lib";
    fs::remove_all(dir);
    const auto opt = runnerSamplingOptions();

    // Every streamed manifest's "checkpoint" block, in emission order.
    const auto blocks = [&](harness::Runner &r,
                            const std::vector<core::Config> &cfgs) {
        harness::SweepRequest req;
        req.workloads = {checkpointWorkload()};
        req.configs = cfgs;
        req.metric = harness::missRatioMetric();
        req.engine = harness::EngineSelect::SampledLivepoint;
        req.sampling = opt;
        req.checkpointDir = dir;
        std::vector<util::Json> out;
        req.telemetry.sink = [&out](const std::string &,
                                    const std::string &doc) {
            const auto j = util::Json::parse(doc);
            const util::Json *m = j ? j->find("metrics") : nullptr;
            const util::Json *ck = m ? m->find("checkpoint") : nullptr;
            ASSERT_NE(ck, nullptr);
            out.push_back(*ck);
        };
        r.run(req);
        return out;
    };

    // One Runner, two requests: a cold one, then one that adds a new
    // config. The runner-lifetime counters accumulate; each block
    // must report its own cell only.
    harness::Runner r;
    const auto cold = blocks(r, {core::presets().get("standard"),
                                 core::presets().get("soft")});
    ASSERT_EQ(cold.size(), 2u);
    for (const auto &ck : cold) {
        EXPECT_EQ(ck.find("misses")->asUint(), 1u);
        EXPECT_EQ(ck.find("hits")->asUint(), 0u);
        EXPECT_EQ(ck.find("stale")->asUint(), 0u);
        EXPECT_GT(ck.find("bytes")->asUint(), 0u);
    }

    const auto second =
        blocks(r, {core::presets().get("soft-prefetch")});
    EXPECT_EQ(r.checkpointCounter("checkpoint.misses"), 3u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].find("misses")->asUint(), 1u);
    EXPECT_EQ(second[0].find("hits")->asUint(), 0u);
    EXPECT_LT(second[0].find("bytes")->asUint(),
              r.checkpointCounter("checkpoint.bytes"));

    // A fresh Runner over the written library hits every cell.
    harness::Runner warm;
    for (const auto &ck : blocks(warm, {core::presets().get("soft")})) {
        EXPECT_EQ(ck.find("hits")->asUint(), 1u);
        EXPECT_EQ(ck.find("misses")->asUint(), 0u);
    }
    fs::remove_all(dir);
}

TEST(CheckpointRunnerTest, CorruptLibraryCountsStaleAndWarmsCleanly)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/saclp_corrupt_lib";
    fs::remove_all(dir);

    const std::vector<core::Config> cfgs = {
        core::presets().get("soft")};
    const auto opt = runnerSamplingOptions();
    const auto plain = directReports(cfgs, opt);

    harness::Runner cold;
    runLivepoint(cold, cfgs, opt, dir);

    // Flip a byte in the middle of the one .saclp file.
    std::string victim;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.path().extension() == ".saclp")
            victim = e.path().string();
    }
    ASSERT_FALSE(victim.empty());
    {
        std::fstream f(victim,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(40);
        char c = 0;
        f.seekg(40);
        f.get(c);
        c = static_cast<char>(c ^ 0x20);
        f.seekp(40);
        f.put(c);
    }

    harness::Runner stale;
    const auto cells = runLivepoint(stale, cfgs, opt, dir);
    EXPECT_EQ(stale.checkpointCounter("checkpoint.stale"), 1u);
    EXPECT_EQ(stale.checkpointCounter("checkpoint.misses"), 1u);
    EXPECT_EQ(stale.checkpointCounter("checkpoint.hits"), 0u);
    expectCellsEqual(cells, plain);

    // The rewrite healed the library: the next run hits again.
    harness::Runner healed;
    runLivepoint(healed, cfgs, opt, dir);
    EXPECT_EQ(healed.checkpointCounter("checkpoint.hits"), 1u);
    fs::remove_all(dir);
}

TEST(CheckpointRunnerTest, LibraryFromAnotherTraceIsStaleAndRebuilt)
{
    // A library written for trace T under workload name N, then a
    // fresh Runner whose workload N builds another trace T'. The
    // library passes every check but the trace hash, which a cell
    // compares only after it has replayed: that replay must be
    // dropped and the cell warmed, saved and replayed from T'.
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/saclp_swap_lib";
    fs::remove_all(dir);
    const auto named = [](std::int64_t n) {
        return harness::Workload{"MV-swap",
                                 [n] {
                                     auto t = workloads::makeTaggedTrace(
                                         workloads::buildMv(n));
                                     t.setName("MV-swap");
                                     return t;
                                 },
                                 nullptr};
    };
    const std::vector<core::Config> cfgs = {
        core::presets().get("soft")};
    const auto opt = runnerSamplingOptions();
    harness::SweepRequest req;
    req.configs = cfgs;
    req.metric = harness::missRatioMetric();
    req.engine = harness::EngineSelect::SampledLivepoint;
    req.sampling = opt;
    req.checkpointDir = dir;

    req.workloads = {named(40)};
    harness::Runner first;
    first.run(req);
    ASSERT_EQ(first.checkpointCounter("checkpoint.misses"), 1u);

    req.workloads = {named(44)};
    const trace::Trace other = req.workloads[0].build();
    std::vector<sim::SampleReport> plain;
    for (const auto &cfg : cfgs) {
        trace::MemoryTraceSource src(other);
        core::SoftwareAssistedCache sim(cfg);
        plain.push_back(sim::SampledEngine(opt).run(src, sim));
    }
    harness::Runner swapped;
    const auto cells = swapped.run(req);
    EXPECT_EQ(swapped.checkpointCounter("checkpoint.stale"), 1u);
    EXPECT_EQ(swapped.checkpointCounter("checkpoint.misses"), 1u);
    EXPECT_EQ(swapped.checkpointCounter("checkpoint.hits"), 0u);
    expectCellsEqual(cells, plain);

    // The rewritten library is T''s and hits.
    harness::Runner again;
    expectCellsEqual(again.run(req), plain);
    EXPECT_EQ(again.checkpointCounter("checkpoint.hits"), 1u);
    EXPECT_EQ(again.checkpointCounter("checkpoint.stale"), 0u);
    fs::remove_all(dir);
}

TEST(CheckpointRunnerTest, ConcurrentLivepointRequestsMatchSerial)
{
    // Two live-point requests over overlapping workloads, jobs 2
    // each, race on one Runner: the trace hashes, the cells and the
    // libraries are each computed once, cold and then warm, and each
    // table equals the same request run alone.
    namespace fs = std::filesystem;
    std::vector<harness::Workload> ws;
    for (const std::int64_t n : {60, 24, 36}) {
        const std::string name = "MV-race" + std::to_string(n);
        ws.push_back({name,
                      [n, name] {
                          auto t = workloads::makeTaggedTrace(
                              workloads::buildMv(n));
                          t.setName(name);
                          return t;
                      },
                      nullptr});
    }
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard"), core::presets().get("soft")};
    const auto request = [&](std::vector<harness::Workload> w,
                             const std::string &dir) {
        harness::SweepRequest req;
        req.workloads = std::move(w);
        req.configs = cfgs;
        req.metric = harness::amatMetric();
        req.engine = harness::EngineSelect::SampledLivepoint;
        req.sampling = runnerSamplingOptions();
        req.checkpointDir = dir;
        req.jobs = 2;
        return req;
    };
    const std::vector<harness::Workload> a = {ws[0], ws[1]};
    const std::vector<harness::Workload> b = {ws[2], ws[0]};
    const std::size_t distinct = ws.size() * cfgs.size();

    const std::string serial_dir =
        testing::TempDir() + "/saclp_race_serial";
    fs::remove_all(serial_dir);
    harness::Runner ref_a, ref_b;
    const std::string want_a = ref_a.run(request(a, serial_dir))
                                   .table.toString();
    const std::string want_b = ref_b.run(request(b, serial_dir))
                                   .table.toString();

    const std::string dir = testing::TempDir() + "/saclp_race_lib";
    for (int round = 0; round < 4; ++round) {
        fs::remove_all(dir);
        for (const bool warm : {false, true}) {
            SCOPED_TRACE(std::string(warm ? "warm" : "cold") +
                         " round " + std::to_string(round));
            harness::Runner r;
            std::string got_a, got_b;
            std::thread ta(
                [&] { got_a = r.run(request(a, dir)).table.toString(); });
            std::thread tb(
                [&] { got_b = r.run(request(b, dir)).table.toString(); });
            ta.join();
            tb.join();
            EXPECT_EQ(got_a, want_a);
            EXPECT_EQ(got_b, want_b);
            EXPECT_EQ(r.runsExecuted(), distinct);
            EXPECT_EQ(r.checkpointCounter(warm ? "checkpoint.hits"
                                               : "checkpoint.misses"),
                      distinct);
            EXPECT_EQ(r.checkpointCounter(warm ? "checkpoint.misses"
                                               : "checkpoint.hits"),
                      0u);
            EXPECT_EQ(r.checkpointCounter("checkpoint.stale"), 0u);
            EXPECT_EQ(r.tracesGenerated(), ws.size());
        }
    }
    fs::remove_all(dir);
    fs::remove_all(serial_dir);
}

TEST(CheckpointRunnerTest, ContiguousGeometryBypassesTheLibrary)
{
    namespace fs = std::filesystem;
    const std::string dir =
        testing::TempDir() + "/saclp_bypass_lib";
    fs::remove_all(dir);

    sim::SamplingOptions opt;
    opt.window = 256;
    opt.stride = 256; // no gap: nothing a library could save
    opt.warmup = 0;

    harness::Runner r;
    const auto cells =
        runLivepoint(r, {core::presets().get("soft")}, opt, dir);
    EXPECT_EQ(cells.cells[0].engine, harness::EngineTag::Sampled);
    EXPECT_EQ(r.checkpointCounter("checkpoint.hits") +
                  r.checkpointCounter("checkpoint.misses"),
              0u);
    EXPECT_FALSE(fs::exists(dir));
}

TEST(CheckpointRunnerTest, JobCountsWriteTheSameLibraries)
{
    // Each trace's content hash (the library key) is a task of its
    // own that the cells overlap. Over three workloads, 4 jobs and
    // 1 job must yield
    // the same reports and the same .saclp files, each keyed on the
    // trace's content hash; a repeat request is served from the cell
    // store and touches no library.
    namespace fs = std::filesystem;
    std::vector<harness::Workload> ws;
    for (const std::int64_t n : {40, 56, 32}) {
        const std::string name = "MV-jobs" + std::to_string(n);
        ws.push_back({name,
                      [n, name] {
                          auto t = workloads::makeTaggedTrace(
                              workloads::buildMv(n));
                          t.setName(name);
                          return t;
                      },
                      nullptr});
    }
    const std::vector<core::Config> cfgs = {
        core::presets().get("standard"), core::presets().get("soft")};
    const auto opt = runnerSamplingOptions();
    const auto request = [&](unsigned jobs, const std::string &dir) {
        harness::SweepRequest req;
        req.workloads = ws;
        req.configs = cfgs;
        req.metric = harness::amatMetric();
        req.engine = harness::EngineSelect::SampledLivepoint;
        req.sampling = opt;
        req.checkpointDir = dir;
        req.jobs = jobs;
        return req;
    };
    // Every .saclp file under @p dir, relative path -> bytes.
    const auto library = [](const std::string &dir) {
        std::map<std::string, std::string> files;
        for (const auto &e : fs::recursive_directory_iterator(dir)) {
            if (e.path().extension() != ".saclp")
                continue;
            std::ifstream in(e.path(), std::ios::binary);
            files[fs::relative(e.path(), dir).string()] =
                std::string(std::istreambuf_iterator<char>(in), {});
        }
        return files;
    };

    const std::string serial_dir =
        testing::TempDir() + "/saclp_jobs1_lib";
    const std::string pooled_dir =
        testing::TempDir() + "/saclp_jobs4_lib";
    fs::remove_all(serial_dir);
    fs::remove_all(pooled_dir);
    harness::Runner serial, pooled;
    const auto one = serial.run(request(1, serial_dir));
    const auto four = pooled.run(request(4, pooled_dir));
    ASSERT_EQ(one.cells.size(), ws.size() * cfgs.size());
    ASSERT_EQ(four.cells.size(), one.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i) {
        ASSERT_TRUE(one.cells[i].report && four.cells[i].report);
        EXPECT_TRUE(*four.cells[i].report == *one.cells[i].report)
            << "cell " << i;
    }
    EXPECT_EQ(one.table.toString(), four.table.toString());
    const auto files = library(serial_dir);
    EXPECT_EQ(files.size(), ws.size() * cfgs.size());
    EXPECT_TRUE(library(pooled_dir) == files);
    EXPECT_EQ(pooled.checkpointCounter("checkpoint.misses"),
              ws.size() * cfgs.size());

    // Each library loads under its trace's content hash.
    for (const auto &w : ws) {
        const trace::Trace t = w.build();
        for (const auto &cfg : cfgs) {
            sim::CheckpointKey key;
            key.traceHash = sim::hashTrace(t);
            key.configKey = cfg.cacheKey();
            key.window = opt.window;
            key.stride = opt.stride;
            key.warmup = opt.warmup;
            sim::CheckpointLibrary lib;
            EXPECT_EQ(lib.load(sim::CheckpointLibrary::pathFor(
                                   pooled_dir, t.name(), key),
                               key),
                      LoadResult::Hit)
                << w.name << " " << cfg.name;
        }
    }

    // A repeat request is served from the cell store.
    const std::uint64_t bytes = pooled.checkpointCounter("checkpoint.bytes");
    const auto again = pooled.run(request(4, pooled_dir));
    EXPECT_EQ(again.table.toString(), four.table.toString());
    EXPECT_EQ(pooled.checkpointCounter("checkpoint.hits"), 0u);
    EXPECT_EQ(pooled.checkpointCounter("checkpoint.misses"),
              ws.size() * cfgs.size());
    EXPECT_EQ(pooled.checkpointCounter("checkpoint.bytes"), bytes);
    EXPECT_EQ(pooled.tracesGenerated(), ws.size());

    fs::remove_all(serial_dir);
    fs::remove_all(pooled_dir);
}

} // namespace
