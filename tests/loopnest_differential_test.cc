/**
 * @file
 * Randomized differential test of loopnest::TraceGenerator against
 * the naive tree-walking interpreter in reference_interpreter.hh.
 *
 * Each case builds a random program over the whole IR: nested loops
 * with constant, variable, triangular and indirect bounds, positive
 * and negative steps, one- to three-dimensional affine references,
 * indirect subscripts, conditionals, CALL markers and re-used loop
 * variables. Every loop variable stays in [0, 7] and subscripts are
 * sized to fit, so every program runs to completion. Both the
 * materialized and the streaming entry must produce the oracle's
 * trace record for record.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/loopnest/builder.hh"
#include "src/loopnest/generator.hh"
#include "src/util/rng.hh"
#include "tests/reference_interpreter.hh"

namespace {

using namespace sac;
using namespace sac::loopnest::builder;
using loopnest::AffineExpr;
using loopnest::Program;
using loopnest::Stmt;
using loopnest::VarId;

/** Builds one random program that stays in bounds by construction. */
class RandomProgram
{
  public:
    explicit RandomProgram(std::uint64_t seed) : rng_(seed), p_("rand")
    {
        for (int k = 0; k < 4; ++k) {
            std::string name = "v";
            name += std::to_string(k);
            vars_.push_back(p_.addVar(std::move(name)));
        }
        dense_.push_back(p_.addArray("A", {128}));
        dense_.push_back(p_.addArray("B", {128, 128}));
        dense_.push_back(p_.addArray("C", {128, 128, 128}));
        index_ = p_.addArray("I", {64});
        std::vector<std::int64_t> data(64);
        for (auto &d : data)
            d = rng_.nextInRange(0, 7);
        p_.setArrayData(index_, std::move(data));
        // An array pinned below the packed ones, so a base other than
        // the first packed address is exercised.
        const auto pinned = p_.addArray("P", {128, 128});
        p_.setArrayBase(pinned, 0x2000);
        dense_.push_back(pinned);
        const int n = static_cast<int>(rng_.nextInRange(1, 3));
        for (int k = 0; k < n; ++k)
            p_.addStmt(stmt(0));
    }

    Program take() { return std::move(p_); }

  private:
    VarId anyVar() { return vars_[rng_.nextBelow(vars_.size())]; }

    /** c + sum a_v * v with |a_v| <= @p amax over a random var subset. */
    AffineExpr
    affine(std::int64_t clo, std::int64_t chi, std::int64_t amax)
    {
        AffineExpr e(rng_.nextInRange(clo, chi));
        for (const VarId var : vars_) {
            if (rng_.nextBool(0.5))
                e += AffineExpr::term(var, rng_.nextInRange(-amax, amax));
        }
        return e;
    }

    /** A subscript in [0, 128): 4 vars x |2| x 7 = 56 either side. */
    loopnest::Subscript
    subscript()
    {
        if (rng_.nextBool(0.2))
            return indirect(index_, affine(28, 35, 1), affine(56, 64, 2));
        return affine(56, 64, 2);
    }

    /**
     * A loop bound in [0, 7]; constants lean to the @p low or high
     * half so that most loops run.
     */
    loopnest::Bound
    bound(bool low)
    {
        switch (rng_.nextBelow(4)) {
        case 0:
            return v(anyVar());
        case 1:
            return indirectBound(index_, affine(28, 35, 1));
        default:
            return low ? rng_.nextInRange(0, 3) : rng_.nextInRange(4, 7);
        }
    }

    loopnest::ArrayRef
    reference()
    {
        const auto a = dense_[rng_.nextBelow(dense_.size())];
        std::vector<loopnest::Subscript> subs;
        for (std::size_t d = 0; d < p_.array(a).dims.size(); ++d)
            subs.push_back(subscript());
        return rng_.nextBool(0.3) ? write(a, std::move(subs))
                                  : read(a, std::move(subs));
    }

    std::vector<Stmt>
    body(int depth)
    {
        std::vector<Stmt> out;
        const int n =
            static_cast<int>(rng_.nextInRange(1, depth < 2 ? 3 : 2));
        for (int k = 0; k < n; ++k)
            out.push_back(stmt(depth + 1));
        return out;
    }

    Stmt
    stmt(int depth)
    {
        const std::uint64_t pick = depth == 0 ? 0 : rng_.nextBelow(10);
        if (depth < 4 && pick < 5) {
            static constexpr std::int64_t steps[] = {1, 1, 2, 3, -1, -2};
            const std::int64_t step = steps[rng_.nextBelow(6)];
            return loop(anyVar(), bound(step > 0), bound(step < 0),
                        body(depth), step);
        }
        if (depth < 4 && pick == 5) {
            const std::int64_t mod = rng_.nextInRange(1, 5);
            return when(affine(-10, 10, 3), mod, rng_.nextInRange(0, mod),
                        body(depth));
        }
        if (pick == 6)
            return call();
        return reference();
    }

    util::Rng rng_;
    Program p_;
    std::vector<VarId> vars_;
    std::vector<loopnest::ArrayId> dense_;
    loopnest::ArrayId index_ = 0;
};

/** Index of the first record where @p a and @p b differ, or -1. */
std::int64_t
firstDifference(const trace::Trace &a, const trace::Trace &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t k = 0; k < n; ++k) {
        if (!(a[k] == b[k]))
            return static_cast<std::int64_t>(k);
    }
    return a.size() == b.size() ? -1 : static_cast<std::int64_t>(n);
}

TEST(GeneratorDifferential, RandomProgramsMatchTheReferenceInterpreter)
{
    constexpr std::uint64_t cases = 2000;
    std::uint64_t records = 0;
    for (std::uint64_t seed = 1; seed <= cases; ++seed) {
        Program p = RandomProgram(seed).take();
        p.finalize();
        util::Rng tag_rng(seed ^ 0x7a95ull);
        loopnest::TagVector tags(p.refCount());
        for (auto &t : tags) {
            t.temporal = tag_rng.nextBool(0.5);
            t.spatial = tag_rng.nextBool(0.5);
            t.spatialLevel = static_cast<std::uint8_t>(
                t.spatial ? tag_rng.nextInRange(1, 3) : 0);
        }

        trace::TimingModel oracle_timing(seed);
        trace::Trace expected;
        test::ReferenceInterpreter(p, tags, oracle_timing).run(expected);

        trace::TimingModel timing(seed);
        trace::Trace materialized;
        loopnest::TraceGenerator(p, tags, timing).run(materialized);
        ASSERT_EQ(firstDifference(expected, materialized), -1)
            << "materialized trace diverges, seed " << seed << " ("
            << expected.size() << " vs " << materialized.size()
            << " records)";

        trace::TimingModel stream_timing(seed);
        trace::Trace streamed;
        loopnest::TraceGenerator(p, tags, stream_timing)
            .run([&streamed](const trace::Record &r) { streamed.push(r); });
        ASSERT_EQ(firstDifference(expected, streamed), -1)
            << "streamed trace diverges, seed " << seed;
        records += expected.size();
    }
    // The sweep must exercise real traces, not mostly-empty loops.
    EXPECT_GT(records, cases * 50);
}

} // namespace
