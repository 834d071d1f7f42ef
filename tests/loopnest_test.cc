/**
 * @file
 * Unit tests for src/loopnest: affine expressions, program
 * construction / finalization, and the trace generator (addresses,
 * ordering, bounds, indirection).
 */

#include <gtest/gtest.h>

#include "src/loopnest/builder.hh"
#include "src/loopnest/generator.hh"
#include "src/loopnest/program.hh"
#include "src/trace/timing_model.hh"

namespace {

using namespace sac;
using namespace sac::loopnest::builder;
using loopnest::AffineExpr;
using loopnest::Program;
using loopnest::TagVector;
using loopnest::TraceGenerator;

/** Timing model with constant delta 1 for deterministic tests. */
trace::TimingModel
unitTiming()
{
    return {util::DiscreteDistribution({{1, 1.0}}), 0};
}

trace::Trace
execute(Program &p)
{
    p.finalize();
    TagVector tags(p.refCount());
    auto tm = unitTiming();
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    gen.run(t);
    return t;
}

TEST(AffineExpr, ConstantAndVariable)
{
    const AffineExpr c5(5);
    EXPECT_TRUE(c5.isConstant());
    EXPECT_EQ(c5.constant(), 5);
    EXPECT_EQ(c5.eval({}), 5);

    const AffineExpr x = AffineExpr::var(0);
    EXPECT_FALSE(x.isConstant());
    EXPECT_EQ(x.coeffOf(0), 1);
    EXPECT_EQ(x.coeffOf(1), 0);
    EXPECT_EQ(x.eval({7}), 7);
}

TEST(AffineExpr, AdditionMergesTerms)
{
    const AffineExpr e =
        AffineExpr::term(0, 2) + AffineExpr::term(1, 3) + 4;
    EXPECT_EQ(e.eval({10, 100}), 2 * 10 + 3 * 100 + 4);
    EXPECT_EQ(e.terms().size(), 2u);
}

TEST(AffineExpr, CancellationRemovesTerm)
{
    const AffineExpr e =
        AffineExpr::term(0, 2) + AffineExpr::term(0, -2);
    EXPECT_TRUE(e.isConstant());
}

TEST(AffineExpr, Scaling)
{
    const AffineExpr e = (AffineExpr::var(0) + 3).scaled(4);
    EXPECT_EQ(e.constant(), 12);
    EXPECT_EQ(e.coeffOf(0), 4);
    EXPECT_TRUE(AffineExpr::var(0).scaled(0).isConstant());
}

TEST(AffineExpr, Subtraction)
{
    const AffineExpr e = AffineExpr::var(0) - 2;
    EXPECT_EQ(e.eval({5}), 3);
    const AffineExpr d =
        (AffineExpr::var(0) + 7) - (AffineExpr::var(0) + AffineExpr(2));
    EXPECT_TRUE(d.isConstant());
    EXPECT_EQ(d.constant(), 5);
}

TEST(AffineExpr, SameCoefficientsIgnoresConstants)
{
    const AffineExpr a = AffineExpr::var(0) + 5;
    const AffineExpr b = AffineExpr::var(0) + 9;
    EXPECT_TRUE(a.sameCoefficients(b));
    EXPECT_FALSE(a.sameCoefficients(AffineExpr::term(0, 2)));
}

TEST(ProgramTest, FinalizeAssignsPackedAlignedBases)
{
    Program p("t");
    const auto a = p.addArray("A", {10});       // 80 bytes
    const auto b = p.addArray("B", {4, 4});     // 128 bytes
    p.finalize();
    EXPECT_EQ(*p.array(a).base, Program::baseAddress);
    // B starts after A, aligned to 32 bytes.
    EXPECT_EQ(*p.array(b).base, Program::baseAddress + 96);
}

TEST(ProgramTest, ExplicitBaseRespected)
{
    Program p("t");
    const auto a = p.addArray("A", {10});
    p.setArrayBase(a, 0x4000);
    p.finalize();
    EXPECT_EQ(*p.array(a).base, 0x4000u);
}

TEST(ProgramTest, RefIdsAreDenseAndLexical)
{
    Program p("t");
    const auto a = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3,
                   {read(a, {v(i)}), write(a, {v(i)})}));
    p.addStmt(read(a, {c(0)}));
    p.finalize();
    EXPECT_EQ(p.refCount(), 3u);

    // Lexical order: loop-body read, loop-body write, top-level read.
    const auto &l = p.statements()[0].loop();
    EXPECT_EQ(l.body[0].ref().ref, 0u);
    EXPECT_EQ(l.body[1].ref().ref, 1u);
    EXPECT_EQ(p.statements()[1].ref().ref, 2u);
}

TEST(ProgramTest, IndirectPartsGetRefIds)
{
    Program p("t");
    const auto idx = p.addArray("I", {4});
    const auto x = p.addArray("X", {16});
    const auto i = p.addVar("i");
    p.setArrayData(idx, {3, 1, 0, 2});
    p.addStmt(loop(i, 0, 3, {read(x, {indirect(idx, v(i))})}));
    p.finalize();
    // The indirect load and the X reference each get an id.
    EXPECT_EQ(p.refCount(), 2u);
}

TEST(GeneratorTest, ColumnMajorAddressing)
{
    Program p("t");
    const auto a = p.addArray("A", {4, 3});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(j, 0, 2, {loop(i, 0, 3, {read(a, {v(i), v(j)})})}));
    const auto t = execute(p);
    ASSERT_EQ(t.size(), 12u);
    const Addr base = Program::baseAddress;
    // A(i,j) lives at base + (i + 4j)*8: fully contiguous sweep.
    for (std::size_t k = 0; k < 12; ++k)
        EXPECT_EQ(t[k].addr, base + 8 * k);
}

TEST(GeneratorTest, ReadWriteTypesPreserved)
{
    Program p("t");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3, {read(a, {v(i)}), write(a, {v(i)})}));
    const auto t = execute(p);
    ASSERT_EQ(t.size(), 8u);
    EXPECT_TRUE(t[0].isRead());
    EXPECT_TRUE(t[1].isWrite());
}

TEST(GeneratorTest, TriangularBounds)
{
    Program p("t");
    const auto a = p.addArray("A", {8, 8});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    // DO i = 0..7: DO j = 0..i-1 -> 0+1+...+7 = 28 iterations.
    p.addStmt(loop(i, 0, 7,
                   {loop(j, 0, v(i) - 1, {read(a, {v(j), v(i)})})}));
    EXPECT_EQ(execute(p).size(), 28u);
}

TEST(GeneratorTest, NegativeStepLoop)
{
    Program p("t");
    const auto a = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 7, 0, {read(a, {v(i)})}, -1));
    const auto t = execute(p);
    ASSERT_EQ(t.size(), 8u);
    EXPECT_EQ(t[0].addr, Program::baseAddress + 7 * 8);
    EXPECT_EQ(t[7].addr, Program::baseAddress);
}

TEST(GeneratorTest, StridedLoop)
{
    Program p("t");
    const auto a = p.addArray("A", {16});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 15, {read(a, {v(i)})}, 4));
    const auto t = execute(p);
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[1].addr - t[0].addr, 4 * 8u);
}

TEST(GeneratorTest, EmptyLoopBodySkipped)
{
    Program p("t");
    const auto a = p.addArray("A", {8});
    const auto i = p.addVar("i");
    // lo > hi with positive step: zero iterations.
    p.addStmt(loop(i, 5, 4, {read(a, {v(i)})}));
    EXPECT_TRUE(execute(p).empty());
}

TEST(GeneratorTest, IndirectSubscriptTracesIndexLoadFirst)
{
    Program p("t");
    const auto idx = p.addArray("I", {3});
    const auto x = p.addArray("X", {16});
    const auto i = p.addVar("i");
    p.setArrayData(idx, {5, 0, 9});
    p.addStmt(loop(i, 0, 2, {read(x, {indirect(idx, v(i))})}));
    p.finalize();
    TagVector tags(p.refCount());
    auto tm = unitTiming();
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    gen.run(t);

    ASSERT_EQ(t.size(), 6u); // (index load + X access) x 3
    const Addr idx_base = *p.array(idx).base;
    const Addr x_base = *p.array(x).base;
    EXPECT_EQ(t[0].addr, idx_base);
    EXPECT_EQ(t[1].addr, x_base + 5 * 8);
    EXPECT_EQ(t[3].addr, x_base + 0 * 8);
    EXPECT_EQ(t[5].addr, x_base + 9 * 8);
    // Distinct reference ids for load and use.
    EXPECT_NE(t[0].ref, t[1].ref);
}

TEST(GeneratorTest, IndirectBoundsDriveLoopAndAreTraced)
{
    Program p("t");
    const auto d = p.addArray("D", {3});
    const auto a = p.addArray("A", {32});
    const auto j1 = p.addVar("j1");
    const auto j2 = p.addVar("j2");
    p.setArrayData(d, {0, 3, 7});
    // DO j1 = 0..1: DO j2 = D(j1) .. D(j1+1)-1
    p.addStmt(loop(j1, 0, 1,
                   {loop(j2, indirectBound(d, v(j1)),
                         indirectBound(d, v(j1) + 1, -1),
                         {read(a, {v(j2)})})}));
    const auto t = execute(p);
    // Per j1 iteration: 2 bound loads + nnz accesses -> 2+3 + 2+4.
    EXPECT_EQ(t.size(), 11u);
}

TEST(GeneratorTest, UserTagsFlowIntoTrace)
{
    Program p("t");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3, {read(a, {v(i)})}));
    p.finalize();
    TagVector tags(p.refCount());
    tags[0] = {true, false};
    auto tm = unitTiming();
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    gen.run(t);
    EXPECT_TRUE(t[0].temporal);
    EXPECT_FALSE(t[0].spatial);
}

TEST(GeneratorTest, DeltasComeFromTimingModel)
{
    Program p("t");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3, {read(a, {v(i)})}));
    p.finalize();
    TagVector tags(p.refCount());
    trace::TimingModel tm(util::DiscreteDistribution({{6, 1.0}}), 0);
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    gen.run(t);
    for (const auto &r : t)
        EXPECT_EQ(r.delta, 6u);
}

TEST(GeneratorTest, GenerateUntaggedConvenience)
{
    Program p("conv");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3, {read(a, {v(i)})}));
    p.finalize();
    trace::TimingModel tm(3);
    const auto t = loopnest::generateUntagged(p, tm);
    EXPECT_EQ(t.name(), "conv");
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.temporalCount(), 0u);
}

TEST(GeneratorTest, RecordCapIsEnforced)
{
    Program p("t");
    const auto a = p.addArray("A", {64});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 63, {read(a, {v(i)})}));
    p.finalize();
    TagVector tags(p.refCount());
    auto tm = unitTiming();
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    EXPECT_DEATH(gen.run(t, 10), "record cap");
}

TEST(GeneratorTest, OutOfBoundsSubscriptPanics)
{
    Program p("t");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 7, {read(a, {v(i)})}));
    p.finalize();
    TagVector tags(p.refCount());
    auto tm = unitTiming();
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    EXPECT_DEATH(gen.run(t), "out of bounds");
}

// ---- Bounds checks that must hold wherever the generator checks. ----

/** Run @p p (finalized here) with unit deltas and cap @p max_records. */
void
runCapped(Program &p, std::uint64_t max_records)
{
    p.finalize();
    TagVector tags(p.refCount());
    auto tm = unitTiming();
    TraceGenerator gen(p, tags, tm);
    trace::Trace t;
    gen.run(t, max_records);
}

TEST(GeneratorBoundsTest, GuardSkipsTheOutOfBoundsIterations)
{
    // A(i) overruns A(4) for i = 4..7, but the guard (i mod 8 < 4)
    // skips exactly those iterations, so nothing is out of bounds.
    Program p("t");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 7, {when(v(i), 8, 4, {read(a, {v(i)})})}));
    const auto t = execute(p);
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[3].addr, Program::baseAddress + 3 * 8);
}

TEST(GeneratorBoundsTest, TriangularOverrunOnLastIteratePanics)
{
    // DO i = 0..7: DO j = 0..i: A(j, i) with A(7, 8): only the very
    // last iterate (i = j = 7) is out of bounds.
    Program p("t");
    const auto a = p.addArray("A", {7, 8});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(i, 0, 7, {loop(j, 0, v(i), {read(a, {v(j), v(i)})})}));
    EXPECT_DEATH(runCapped(p, TraceGenerator::defaultMaxRecords),
                 "out of bounds");
}

TEST(GeneratorBoundsTest, IndirectSubscriptOutOfRangePanics)
{
    Program p("t");
    const auto idx = p.addArray("I", {3});
    const auto x = p.addArray("X", {16});
    const auto i = p.addVar("i");
    p.setArrayData(idx, {5, 0, 16});
    p.addStmt(loop(i, 0, 2, {read(x, {indirect(idx, v(i))})}));
    EXPECT_DEATH(runCapped(p, TraceGenerator::defaultMaxRecords),
                 "out of bounds");
}

TEST(GeneratorBoundsTest, IndexArraySubscriptOutOfRangePanics)
{
    Program p("t");
    const auto idx = p.addArray("I", {3});
    const auto x = p.addArray("X", {16});
    const auto i = p.addVar("i");
    p.setArrayData(idx, {5, 0, 9});
    p.addStmt(loop(i, 0, 3, {read(x, {indirect(idx, v(i))})}));
    EXPECT_DEATH(runCapped(p, TraceGenerator::defaultMaxRecords),
                 "index-array subscript out of bounds");
}

TEST(GeneratorBoundsTest, NegativeStepBelowZeroPanics)
{
    Program p("t");
    const auto a = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 7, -1, {read(a, {v(i)})}, -1));
    EXPECT_DEATH(runCapped(p, TraceGenerator::defaultMaxRecords),
                 "out of bounds");
}

TEST(GeneratorBoundsTest, RecordCapInsideInnerLoopPanics)
{
    // 4 x 8 records; the cap of 13 falls inside the second inner loop.
    Program p("t");
    const auto a = p.addArray("A", {8, 4});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(j, 0, 3, {loop(i, 0, 7, {read(a, {v(i), v(j)})})}));
    EXPECT_DEATH(runCapped(p, 13), "record cap");
}

TEST(GeneratorBoundsTest, CapExactlyAtTraceLengthPasses)
{
    Program p("t");
    const auto a = p.addArray("A", {8, 4});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(j, 0, 3, {loop(i, 0, 7, {read(a, {v(i), v(j)})})}));
    runCapped(p, 32);
}

} // namespace
