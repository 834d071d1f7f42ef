/**
 * @file
 * Golden trace hashes: sim::hashTrace of every trace the loop-nest
 * generator produces for the paper workloads, the Figure 11 kernels,
 * the kernel-only programs and the small generator/conditional test
 * programs, pinned to their committed values. Any change to address
 * generation, reference numbering, tag flow or the order of the
 * Figure 4b delta draws changes a hash here.
 *
 * The 16 paper and Figure 11 values equal the `trace|*` entries of
 * perfbench/golden.json. One test case runs per workload, so
 * `ctest -j` spreads the large ones.
 */

#include <cctype>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/loopnest/builder.hh"
#include "src/sim/checkpoint.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using namespace sac::loopnest::builder;
using loopnest::Program;

/** A named program and the hash of its tagged trace. */
struct Golden
{
    std::string name;
    std::function<Program()> build;
    std::uint64_t hash;
};

/** Failure messages name the program instead of dumping bytes. */
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.name;
}

/** gtest parameter names: alphanumerics only. */
std::string
caseName(const testing::TestParamInfo<Golden> &info)
{
    std::string out;
    for (const char ch : info.param.name)
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

/** Hash of the tagged trace (default timing seed) of @p g's program. */
std::string
taggedHash(const Golden &g)
{
    return hex(sim::hashTrace(workloads::makeTaggedTrace(g.build())));
}

// ---- The nine paper workloads. ------------------------------------

class PaperTraceGolden : public testing::TestWithParam<Golden>
{
};

TEST_P(PaperTraceGolden, MaterializedAndStreamedMatch)
{
    const Golden &g = GetParam();
    const trace::Trace made = workloads::makeBenchmarkTrace(g.name);
    EXPECT_EQ(hex(sim::hashTrace(made)), hex(g.hash));

    trace::Trace streamed(g.name);
    workloads::streamBenchmarkTrace(
        g.name, [&streamed](const trace::Record &r) { streamed.push(r); });
    EXPECT_EQ(hex(sim::hashTrace(streamed)), hex(g.hash));
}

Golden
paper(const char *name, std::uint64_t hash)
{
    return {name, {}, hash};
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperTraceGolden,
    testing::Values(paper("MDG", 0xa9ae5c0489147568ull),
                    paper("BDN", 0xbb0ac451b6e35fabull),
                    paper("DYF", 0xa2e7c3f753a46c6full),
                    paper("TRF", 0x3695a0e5841284e5ull),
                    paper("NAS", 0xed47f046f9a3f801ull),
                    paper("Slalom", 0xc4ea535d4a178eaeull),
                    paper("LIV", 0x3c4605f40172deb1ull),
                    paper("MV", 0xad828545c8c03710ull),
                    paper("SpMV", 0xdc42354050dfd9ebull)),
    caseName);

// ---- Programs hashed through makeTaggedTrace. ---------------------

class ProgramTraceGolden : public testing::TestWithParam<Golden>
{
};

TEST_P(ProgramTraceGolden, HashIsPinned)
{
    EXPECT_EQ(taggedHash(GetParam()), hex(GetParam().hash));
}

/** The Figure 11 blocking and copying kernels, as perfbench builds them. */
INSTANTIATE_TEST_SUITE_P(
    Fig11, ProgramTraceGolden,
    testing::Values(
        Golden{"BlockedMV-b20",
               [] { return workloads::buildBlockedMv(1200, 20); },
               0x01df95bac051081eull},
        Golden{"BlockedMV-b100",
               [] { return workloads::buildBlockedMv(1200, 100); },
               0xe8921c602438a2deull},
        Golden{"BlockedMV-b1200",
               [] { return workloads::buildBlockedMv(1200, 1200); },
               0x47dcf1950fdb3728ull},
        Golden{"CopiedMM-nocopy-ld116",
               [] { return workloads::buildCopiedMm(80, 116, 16, false); },
               0x0884df9ac411848eull},
        Golden{"CopiedMM-copy-ld116",
               [] { return workloads::buildCopiedMm(80, 116, 16, true); },
               0x916e16e9b10549f5ull},
        Golden{"CopiedMM-nocopy-ld126",
               [] { return workloads::buildCopiedMm(80, 126, 16, false); },
               0xa81690d06810253aull},
        Golden{"CopiedMM-copy-ld126",
               [] { return workloads::buildCopiedMm(80, 126, 16, true); },
               0x94e64686bcd33545ull}),
    caseName);

Golden
kernelOnly(const char *name, std::uint64_t hash)
{
    return {std::string("KernelOnly-") + name,
            [name] { return workloads::buildKernelOnly(name); }, hash};
}

INSTANTIATE_TEST_SUITE_P(
    KernelOnly, ProgramTraceGolden,
    testing::Values(kernelOnly("ADM", 0x28056cfcc3331608ull),
                    kernelOnly("MDG", 0x56a02c560f8f5e4full),
                    kernelOnly("BDN", 0xd3c35850761ccea6ull),
                    kernelOnly("DYF", 0xf3220d97498cf21aull),
                    kernelOnly("ARC", 0xd4c83891cebd8f42ull),
                    kernelOnly("FLO", 0x4587eebafab7e5d1ull),
                    kernelOnly("TRF", 0xb30c0815191b8bedull)),
    caseName);

// The programs of GeneratorTest (loopnest_test.cc) and ConditionalTest
// (conditional_test.cc) that run to completion, traced with analyzer
// tags and the Figure 4b timing model instead of unit deltas.

Program
columnMajor()
{
    Program p("ColumnMajor");
    const auto a = p.addArray("A", {4, 3});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(j, 0, 2, {loop(i, 0, 3, {read(a, {v(i), v(j)})})}));
    return p;
}

Program
readWrite()
{
    Program p("ReadWrite");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3, {read(a, {v(i)}), write(a, {v(i)})}));
    return p;
}

Program
triangular()
{
    Program p("Triangular");
    const auto a = p.addArray("A", {8, 8});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(i, 0, 7,
                   {loop(j, 0, v(i) - 1, {read(a, {v(j), v(i)})})}));
    return p;
}

Program
negativeStep()
{
    Program p("NegativeStep");
    const auto a = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 7, 0, {read(a, {v(i)})}, -1));
    return p;
}

Program
strided()
{
    Program p("Strided");
    const auto a = p.addArray("A", {16});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 15, {read(a, {v(i)})}, 4));
    return p;
}

Program
emptyLoop()
{
    Program p("EmptyLoop");
    const auto a = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 5, 4, {read(a, {v(i)})}));
    return p;
}

Program
indirectSubscript()
{
    Program p("IndirectSubscript");
    const auto idx = p.addArray("I", {3});
    const auto x = p.addArray("X", {16});
    const auto i = p.addVar("i");
    p.setArrayData(idx, {5, 0, 9});
    p.addStmt(loop(i, 0, 2, {read(x, {indirect(idx, v(i))})}));
    return p;
}

Program
indirectBounds()
{
    Program p("IndirectBounds");
    const auto d = p.addArray("D", {3});
    const auto a = p.addArray("A", {32});
    const auto j1 = p.addVar("j1");
    const auto j2 = p.addVar("j2");
    p.setArrayData(d, {0, 3, 7});
    p.addStmt(loop(j1, 0, 1,
                   {loop(j2, indirectBound(d, v(j1)),
                         indirectBound(d, v(j1) + 1, -1),
                         {read(a, {v(j2)})})}));
    return p;
}

Program
simpleSweep()
{
    // UserTagsFlowIntoTrace, DeltasComeFromTimingModel and
    // GenerateUntaggedConvenience share this program.
    Program p("SimpleSweep");
    const auto a = p.addArray("A", {4});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 3, {read(a, {v(i)})}));
    return p;
}

Program
capSweep()
{
    // RecordCapIsEnforced's program, run without the cap.
    Program p("CapSweep");
    const auto a = p.addArray("A", {64});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 63, {read(a, {v(i)})}));
    return p;
}

Program
guardResidues()
{
    Program p("GuardResidues");
    const auto A = p.addArray("A", {16});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 15, {when(v(i), 4, 1, {read(A, {v(i)})})}));
    return p;
}

Program
guardDensity()
{
    Program p("GuardDensity");
    const auto A = p.addArray("A", {100});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 99, {when(v(i), 10, 3, {read(A, {v(i)})})}));
    return p;
}

Program
guardNegative()
{
    Program p("GuardNegative");
    const auto A = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 7, {when(v(i) - 8, 4, 1, {read(A, {v(i)})})}));
    return p;
}

Program
guardNested()
{
    Program p("GuardNested");
    const auto A = p.addArray("A", {8, 8});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(i, 0, 7,
                   {when(v(i), 2, 1,
                         {loop(j, 0, 7, {read(A, {v(j), v(i)})})})}));
    return p;
}

Program
guardInnerInvariant()
{
    Program p("GuardInnerInvariant");
    const auto X = p.addArray("X", {8});
    const auto i = p.addVar("i");
    const auto j = p.addVar("j");
    p.addStmt(loop(i, 0, 7,
                   {loop(j, 0, 7, {when(v(j), 2, 1, {read(X, {v(j)})})})}));
    return p;
}

Program
guardCall()
{
    Program p("GuardCall");
    const auto X = p.addArray("X", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 7, {when(v(i), 2, 1, {call(), read(X, {v(i)})})}));
    return p;
}

Program
guardRefIds()
{
    Program p("GuardRefIds");
    const auto X = p.addArray("X", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 7,
                   {read(X, {v(i)}), when(v(i), 2, 1, {write(X, {v(i)})}),
                    read(X, {c(0)})}));
    return p;
}

Program
guardZero()
{
    Program p("GuardZero");
    const auto A = p.addArray("A", {8});
    const auto i = p.addVar("i");
    p.addStmt(loop(i, 0, 7, {when(v(i), 2, 0, {read(A, {v(i)})})}));
    return p;
}

INSTANTIATE_TEST_SUITE_P(
    TestPrograms, ProgramTraceGolden,
    testing::Values(
        Golden{"ColumnMajor", columnMajor, 0x5dc2f1a83bf7653aull},
        Golden{"ReadWrite", readWrite, 0x5c06ff698bcfba08ull},
        Golden{"Triangular", triangular, 0xe8aa5198921591a0ull},
        Golden{"NegativeStep", negativeStep, 0x82b6b00a68fea1f4ull},
        Golden{"Strided", strided, 0x166d7fbd7c468e78ull},
        Golden{"EmptyLoop", emptyLoop, 0xa8c7f832281a39c5ull},
        Golden{"IndirectSubscript", indirectSubscript, 0xf5ff10036c571ee9ull},
        Golden{"IndirectBounds", indirectBounds, 0x6421045c7c8767f1ull},
        Golden{"SimpleSweep", simpleSweep, 0x67e04a2fec5d9a78ull},
        Golden{"CapSweep", capSweep, 0xe5ea29b70c8ac2d6ull},
        Golden{"GuardResidues", guardResidues, 0x89d4460301752a30ull},
        Golden{"GuardDensity", guardDensity, 0xf093896585ba37b8ull},
        Golden{"GuardNegative", guardNegative, 0x19475b87f93b1842ull},
        Golden{"GuardNested", guardNested, 0xe7e0774286a37128ull},
        Golden{"GuardInnerInvariant", guardInnerInvariant,
               0xd4aec9f4125ea7a8ull},
        Golden{"GuardCall", guardCall, 0xe89478beb6e91380ull},
        Golden{"GuardRefIds", guardRefIds, 0xbf8b3e58b731a619ull},
        Golden{"GuardZero", guardZero, 0xa8c7f832281a39c5ull}),
    caseName);

} // namespace
