/**
 * @file
 * Unit tests for the set-associative cache storage and its
 * replacement policies, and a randomized differential test of the
 * array against a naive array-of-structs model.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/cache_array.hh"
#include "src/util/rng.hh"

namespace {

using sac::Addr;
using sac::cache::CacheArray;
using sac::cache::LineState;
using sac::cache::ReplacementPolicy;

TEST(CacheArray, GeometryDirectMapped)
{
    CacheArray c(8192, 32, 1);
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.assoc(), 1u);
    EXPECT_EQ(c.lineBytes(), 32u);
    EXPECT_EQ(c.sizeBytes(), 8192u);
}

TEST(CacheArray, GeometryFullyAssociative)
{
    CacheArray c(256, 32, 8);
    EXPECT_EQ(c.numSets(), 1u);
    EXPECT_EQ(c.assoc(), 8u);
}

TEST(CacheArray, AddressMapping)
{
    CacheArray c(8192, 32, 1);
    EXPECT_EQ(c.lineAddrOf(0), 0u);
    EXPECT_EQ(c.lineAddrOf(31), 0u);
    EXPECT_EQ(c.lineAddrOf(32), 1u);
    EXPECT_EQ(c.byteAddrOf(3), 96u);
    // Lines 0 and 256 share set 0 in a 256-set cache.
    EXPECT_EQ(c.setIndexOf(0), c.setIndexOf(256));
    EXPECT_NE(c.setIndexOf(0), c.setIndexOf(1));
}

TEST(CacheArray, InsertAndFind)
{
    CacheArray c(8192, 32, 1);
    EXPECT_FALSE(c.contains(5));
    const LineState evicted = c.insert(5, ReplacementPolicy::Lru).evicted;
    EXPECT_FALSE(evicted.valid);
    EXPECT_TRUE(c.contains(5));
    ASSERT_TRUE(c.find(5).has_value());
    EXPECT_EQ(c.find(5)->lineAddr(), 5u);
    EXPECT_FALSE(c.find(5)->dirty());
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, DirectMappedConflictEvicts)
{
    CacheArray c(8192, 32, 1);
    c.insert(0, ReplacementPolicy::Lru);
    c.find(0)->setDirty();
    const LineState evicted = c.insert(256, ReplacementPolicy::Lru).evicted;
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.lineAddr, 0u);
    EXPECT_TRUE(evicted.dirty);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(256));
}

TEST(CacheArray, LruEvictsOldest)
{
    CacheArray c(128, 32, 4); // one set, 4 ways
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    const LineState evicted = c.insert(5, ReplacementPolicy::Lru).evicted;
    EXPECT_EQ(evicted.lineAddr, 1u);
}

TEST(CacheArray, TouchRefreshesLru)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    c.touch(0, *c.findWay(1)); // 1 becomes MRU; 2 is now LRU
    const LineState evicted = c.insert(5, ReplacementPolicy::Lru).evicted;
    EXPECT_EQ(evicted.lineAddr, 2u);
}

TEST(CacheArray, InvalidWaysPreferredOverEviction)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.invalidate(1);
    c.insert(2, ReplacementPolicy::Lru);
    EXPECT_EQ(c.validCount(), 1u);
    const LineState evicted = c.insert(3, ReplacementPolicy::Lru).evicted;
    EXPECT_FALSE(evicted.valid);
}

TEST(CacheArray, PreferNonTemporalReplacement)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    // 1 and 2 (the LRU ones) are temporal; 3 is the LRU non-temporal.
    c.find(1)->setTemporal();
    c.find(2)->setTemporal();
    const LineState evicted =
        c.insert(5, ReplacementPolicy::LruPreferNonTemporal).evicted;
    EXPECT_EQ(evicted.lineAddr, 3u);
}

TEST(CacheArray, PreferNonTemporalFallsBackToLru)
{
    CacheArray c(128, 32, 4);
    for (Addr a = 1; a <= 4; ++a) {
        c.insert(a, ReplacementPolicy::Lru);
        c.find(a)->setTemporal();
    }
    const LineState evicted =
        c.insert(9, ReplacementPolicy::LruPreferNonTemporal).evicted;
    EXPECT_EQ(evicted.lineAddr, 1u); // plain LRU among all-temporal
}

TEST(CacheArray, PreferPrefetchedReplacement)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru);
    c.find(3)->setPrefetched();
    const LineState evicted =
        c.insert(5, ReplacementPolicy::LruPreferPrefetched).evicted;
    EXPECT_EQ(evicted.lineAddr, 3u);
}

TEST(CacheArray, InsertClearsAllBits)
{
    CacheArray c(128, 32, 4);
    c.insert(1, ReplacementPolicy::Lru);
    c.find(1)->setDirty();
    c.find(1)->setTemporal();
    c.invalidate(1);
    c.insert(1, ReplacementPolicy::Lru);
    EXPECT_FALSE(c.find(1)->dirty());
    EXPECT_FALSE(c.find(1)->temporal());
    EXPECT_FALSE(c.find(1)->prefetched());
}

TEST(CacheArray, InvalidateReturnsOldState)
{
    CacheArray c(8192, 32, 1);
    EXPECT_FALSE(c.invalidate(7).has_value());
    c.insert(7, ReplacementPolicy::Lru);
    c.find(7)->setDirty();
    const auto old = c.invalidate(7);
    ASSERT_TRUE(old.has_value());
    EXPECT_TRUE(old->dirty);
    EXPECT_FALSE(c.contains(7));
}

TEST(CacheArray, ResetClearsEverything)
{
    CacheArray c(8192, 32, 1);
    for (Addr a = 0; a < 100; ++a)
        c.insert(a, ReplacementPolicy::Lru);
    c.reset();
    EXPECT_EQ(c.validCount(), 0u);
    EXPECT_FALSE(c.contains(5));
}

TEST(CacheArray, PrefetchedCountTracksEveryMutationPath)
{
    CacheArray c(128, 32, 4);
    EXPECT_EQ(c.prefetchedCount(), 0u);
    c.insert(1, ReplacementPolicy::Lru);
    c.insert(2, ReplacementPolicy::Lru);
    c.find(1)->setPrefetched();
    c.find(2)->setPrefetched();
    EXPECT_EQ(c.prefetchedCount(), 2u);
    c.find(2)->setPrefetched(true); // idempotent
    EXPECT_EQ(c.prefetchedCount(), 2u);
    c.find(1)->setPrefetched(false);
    EXPECT_EQ(c.prefetchedCount(), 1u);
    c.invalidate(2);
    EXPECT_EQ(c.prefetchedCount(), 0u);

    c.find(1)->setPrefetched();
    LineState s;
    s.lineAddr = 1;
    s.valid = true;
    c.find(1)->assign(s); // assign overwrites the bit
    EXPECT_EQ(c.prefetchedCount(), 0u);
    s.prefetched = true;
    c.find(1)->assign(s);
    EXPECT_EQ(c.prefetchedCount(), 1u);
    c.insert(2, ReplacementPolicy::Lru);
    c.insert(3, ReplacementPolicy::Lru);
    c.insert(4, ReplacementPolicy::Lru); // set now full
    // Evicting the prefetched line drops the count.
    c.insert(5, ReplacementPolicy::LruPreferPrefetched);
    EXPECT_FALSE(c.contains(1));
    EXPECT_EQ(c.prefetchedCount(), 0u);

    c.find(5)->setPrefetched();
    c.reset();
    EXPECT_EQ(c.prefetchedCount(), 0u);
}

TEST(CacheArray, LineRefSnapshotRoundTrips)
{
    CacheArray c(128, 32, 4);
    c.insert(3, ReplacementPolicy::Lru);
    auto ref = c.line(0, *c.findWay(3));
    ref.setDirty();
    ref.setTemporal();
    const LineState snap = ref.state();
    EXPECT_EQ(snap.lineAddr, 3u);
    EXPECT_TRUE(snap.valid);
    EXPECT_TRUE(snap.dirty);
    EXPECT_TRUE(snap.temporal);
    EXPECT_EQ(snap.lruStamp, ref.lruStamp());

    // Assigning the snapshot into another slot replicates everything,
    // including the LRU stamp.
    c.line(0, 3).assign(snap);
    const LineState copy = static_cast<const CacheArray &>(c).line(0, 3);
    EXPECT_EQ(copy.lineAddr, snap.lineAddr);
    EXPECT_EQ(copy.dirty, snap.dirty);
    EXPECT_EQ(copy.temporal, snap.temporal);
    EXPECT_EQ(copy.lruStamp, snap.lruStamp);

    ref.clear();
    EXPECT_FALSE(ref.valid());
    EXPECT_TRUE(c.contains(3)); // the copy at way 3 survives
}

TEST(CacheArray, SetAssociativeNoFalseConflicts)
{
    CacheArray c(8192, 32, 2); // 128 sets, 2 ways
    // Lines 0 and 128 share a set but coexist with 2 ways.
    c.insert(0, ReplacementPolicy::Lru);
    c.insert(128, ReplacementPolicy::Lru);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(128));
    const LineState evicted = c.insert(256, ReplacementPolicy::Lru).evicted;
    EXPECT_EQ(evicted.lineAddr, 0u);
}

// ---- Reference model -------------------------------------------
//
// A naive array-of-structs cache that shares no code with CacheArray:
// one LineState per slot, linear scans for every query. Random
// operation sequences drive both, and the whole observable state is
// compared after every operation.

/** Array-of-structs model of CacheArray's documented behavior. */
class ModelArray
{
  public:
    ModelArray(std::uint32_t sets, std::uint32_t assoc)
        : sets_(sets), assoc_(assoc), lines_(sets * assoc)
    {
    }

    std::uint32_t setOf(Addr line) const
    {
        return static_cast<std::uint32_t>(line % sets_);
    }

    LineState &at(std::uint32_t set, std::uint32_t way)
    {
        return lines_[set * assoc_ + way];
    }

    const std::vector<LineState> &lines() const { return lines_; }
    std::uint64_t clock() const { return clock_; }

    /** First way of the line's set holding it, or -1. */
    int findWay(Addr line) const
    {
        const std::uint32_t set = setOf(line);
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const LineState &l = lines_[set * assoc_ + w];
            if (l.valid && l.lineAddr == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    /** Free way first; else LRU among preferred lines; else LRU. */
    std::uint32_t victimWay(std::uint32_t set, ReplacementPolicy p) const
    {
        for (std::uint32_t w = 0; w < assoc_; ++w)
            if (!lines_[set * assoc_ + w].valid)
                return w;
        int best_preferred = -1;
        std::uint32_t best = 0;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const LineState &l = lines_[set * assoc_ + w];
            const std::uint64_t stamp = l.lruStamp;
            if (stamp < lines_[set * assoc_ + best].lruStamp)
                best = w;
            const bool preferred =
                (p == ReplacementPolicy::LruPreferNonTemporal &&
                 !l.temporal) ||
                (p == ReplacementPolicy::LruPreferPrefetched &&
                 l.prefetched);
            if (preferred &&
                (best_preferred < 0 ||
                 stamp < lines_[set * assoc_ + best_preferred].lruStamp))
                best_preferred = static_cast<int>(w);
        }
        return best_preferred >= 0
                   ? static_cast<std::uint32_t>(best_preferred)
                   : best;
    }

    /** Install @p line; returns the way filled and the old contents. */
    std::pair<std::uint32_t, LineState> insert(Addr line,
                                               ReplacementPolicy p)
    {
        const std::uint32_t set = setOf(line);
        const std::uint32_t way = victimWay(set, p);
        const LineState old = at(set, way);
        LineState fresh;
        fresh.lineAddr = line;
        fresh.valid = true;
        fresh.lruStamp = ++clock_;
        at(set, way) = fresh;
        return {way, old};
    }

    void touch(std::uint32_t set, std::uint32_t way)
    {
        at(set, way).lruStamp = ++clock_;
    }

    /** Install a full state; an invalid line reads back address 0. */
    void assign(std::uint32_t set, std::uint32_t way, LineState s)
    {
        if (!s.valid)
            s.lineAddr = 0;
        at(set, way) = s;
    }

    void clear(std::uint32_t set, std::uint32_t way)
    {
        at(set, way) = LineState{};
    }

    void restore(const std::vector<LineState> &image, std::uint64_t clock)
    {
        for (std::size_t i = 0; i < image.size(); ++i)
            assign(static_cast<std::uint32_t>(i / assoc_),
                   static_cast<std::uint32_t>(i % assoc_), image[i]);
        clock_ = clock;
    }

    std::uint32_t validCount() const
    {
        std::uint32_t n = 0;
        for (const LineState &l : lines_)
            n += l.valid;
        return n;
    }

    /** Slots with the prefetched bit, valid or not. */
    std::uint32_t prefetchedCount() const
    {
        std::uint32_t n = 0;
        for (const LineState &l : lines_)
            n += l.prefetched;
        return n;
    }

  private:
    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::vector<LineState> lines_;
    std::uint64_t clock_ = 0;
};

std::string
describe(const LineState &l)
{
    return "{addr " + std::to_string(l.lineAddr) + " v" +
           std::to_string(l.valid) + " d" + std::to_string(l.dirty) +
           " t" + std::to_string(l.temporal) + " p" +
           std::to_string(l.prefetched) + " stamp " +
           std::to_string(l.lruStamp) + "}";
}

bool
sameLine(const LineState &a, const LineState &b)
{
    return a.lineAddr == b.lineAddr && a.valid == b.valid &&
           a.dirty == b.dirty && a.temporal == b.temporal &&
           a.prefetched == b.prefetched && a.lruStamp == b.lruStamp;
}

constexpr ReplacementPolicy kPolicies[] = {
    ReplacementPolicy::Lru, ReplacementPolicy::LruPreferNonTemporal,
    ReplacementPolicy::LruPreferPrefetched};

/** Compare every observable of @p real with @p model. */
void
expectSameState(const CacheArray &real, const ModelArray &model,
                const std::string &step)
{
    const std::vector<LineState> snap = real.snapshotLines();
    ASSERT_EQ(snap.size(), model.lines().size()) << step;
    for (std::size_t i = 0; i < snap.size(); ++i) {
        ASSERT_TRUE(sameLine(snap[i], model.lines()[i]))
            << step << ": slot " << i << " is " << describe(snap[i])
            << ", model " << describe(model.lines()[i]);
    }
    ASSERT_EQ(real.lruClock(), model.clock()) << step;
    ASSERT_EQ(real.validCount(), model.validCount()) << step;
    ASSERT_EQ(real.prefetchedCount(), model.prefetchedCount()) << step;
    for (std::uint32_t set = 0; set < real.numSets(); ++set) {
        for (const ReplacementPolicy p : kPolicies) {
            ASSERT_EQ(real.victimWay(set, p), model.victimWay(set, p))
                << step << ": set " << set << " policy "
                << static_cast<int>(p);
        }
    }
}

class CacheArrayReference : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheArrayReference, RandomOpsMatchModel)
{
    constexpr std::uint32_t kSets = 4;
    constexpr std::uint32_t kLineBytes = 32;
    const std::uint32_t assoc = GetParam();
    // Lines drawn from three times the capacity: hits, refills of
    // free slots and evictions all occur.
    const Addr pool = 3ull * kSets * assoc;

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        CacheArray real(static_cast<std::uint64_t>(kSets) * assoc *
                            kLineBytes,
                        kLineBytes, assoc);
        ModelArray model(kSets, assoc);
        sac::util::Rng rng(seed * 0x51ed + assoc);

        auto random_state = [&](std::uint32_t set) {
            LineState s;
            s.valid = rng.nextBelow(4) != 0;
            // A line of this set, so probes can find it.
            s.lineAddr = rng.nextBelow(pool / kSets) * kSets + set;
            s.dirty = rng.nextBelow(2) != 0;
            s.temporal = rng.nextBelow(2) != 0;
            s.prefetched = rng.nextBelow(3) == 0;
            // Few distinct stamps, so equal-stamp ties occur.
            s.lruStamp = rng.nextBelow(8);
            return s;
        };

        for (int op = 0; op < 10000; ++op) {
            const std::uint64_t kind = rng.nextBelow(100);
            const std::uint32_t set =
                static_cast<std::uint32_t>(rng.nextBelow(kSets));
            const std::uint32_t way =
                static_cast<std::uint32_t>(rng.nextBelow(assoc));
            const bool v = rng.nextBelow(2) != 0;
            std::string step = "seed " + std::to_string(seed) + " op " +
                               std::to_string(op) + " kind " +
                               std::to_string(kind);
            if (kind < 40) {
                const Addr line = rng.nextBelow(pool);
                const ReplacementPolicy p = kPolicies[rng.nextBelow(3)];
                CacheArray::Insertion ins = real.insert(line, p);
                const auto [mway, mevicted] = model.insert(line, p);
                ASSERT_TRUE(sameLine(ins.evicted, mevicted))
                    << step << ": evicted " << describe(ins.evicted)
                    << ", model " << describe(mevicted);
                ASSERT_EQ(ins.slot.lineAddr(), line) << step;
                // The returned slot is the one the model filled: a bit
                // a fresh line lacks, set through it, lands there.
                LineState &m = model.at(model.setOf(line), mway);
                switch (rng.nextBelow(3)) {
                  case 0:
                    ins.slot.setDirty();
                    m.dirty = true;
                    break;
                  case 1:
                    ins.slot.setTemporal();
                    m.temporal = true;
                    break;
                  default:
                    ins.slot.setPrefetched();
                    m.prefetched = true;
                    break;
                }
            } else if (kind < 55) {
                real.touch(set, way);
                model.touch(set, way);
            } else if (kind < 60) {
                real.line(set, way).touch();
                model.touch(set, way);
            } else if (kind < 68) {
                const LineState s = random_state(set);
                real.line(set, way).assign(s);
                model.assign(set, way, s);
            } else if (kind < 72) {
                real.line(set, way).clear();
                model.clear(set, way);
            } else if (kind < 79) {
                real.line(set, way).setDirty(v);
                model.at(set, way).dirty = v;
            } else if (kind < 86) {
                real.line(set, way).setTemporal(v);
                model.at(set, way).temporal = v;
            } else if (kind < 93) {
                real.line(set, way).setPrefetched(v);
                model.at(set, way).prefetched = v;
            } else if (kind < 98) {
                const Addr line = rng.nextBelow(pool);
                const auto found = real.findWay(line);
                const int mway = model.findWay(line);
                ASSERT_EQ(found.has_value(), mway >= 0) << step;
                if (found) {
                    ASSERT_EQ(*found, static_cast<std::uint32_t>(mway))
                        << step;
                }
            } else {
                std::vector<LineState> image;
                for (std::uint32_t i = 0; i < kSets * assoc; ++i)
                    image.push_back(random_state(i / assoc));
                const std::uint64_t clock = rng.nextBelow(16);
                real.restoreLines(image, clock);
                model.restore(image, clock);
            }
            expectSameState(real, model, step);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheArrayReference,
                         testing::Values(1u, 2u, 8u, 16u));

} // namespace
