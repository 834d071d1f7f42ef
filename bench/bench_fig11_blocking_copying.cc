/**
 * @file
 * Figure 11 reproduction: software-assisted caches as support for
 * software optimizations. 11a — AMAT of blocked matrix-vector
 * multiply across block sizes, Standard vs Soft; 11b — AMAT of
 * blocked matrix-matrix multiply with and without data copying as
 * the array leading dimension sweeps 116..126.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Figure 11",
                       "Blocking (11a) and data copying (11b)");

    std::cout << "\nFigure 11a: optimal block size for blocked "
                 "matrix-vector multiply (AMAT)\n\n";
    const std::int64_t n = 1200;
    const std::int64_t blocks[] = {10,  20,  30,  40,  50,
                                   100, 400, 600, 1200};
    const auto configs = bench::presetConfigs({"standard", "soft"});
    std::vector<harness::Workload> blocked;
    for (const auto b : blocks) {
        blocked.push_back(bench::programWorkload(
            "BlockedMV-b" + std::to_string(b),
            [n, b] { return workloads::buildBlockedMv(n, b); }));
    }
    const auto sa = bench::exactSweep(blocked, configs);
    util::Table ta({"Block size", "Stand.", "Soft."});
    for (std::size_t i = 0; i < std::size(blocks); ++i) {
        const auto row = ta.addRow();
        ta.set(row, 0, std::to_string(blocks[i]));
        ta.setNumber(row, 1, sa.at(i, 0).stats.amat());
        ta.setNumber(row, 2, sa.at(i, 1).stats.amat());
    }
    ta.print(std::cout);

    std::cout << "\nFigure 11b: data copying for blocked matrix "
                 "multiply (AMAT), leading dimension sweep\n\n";
    constexpr std::int64_t mm_n = 80;
    constexpr std::int64_t mm_block = 16;
    constexpr std::int64_t ld_first = 116;
    constexpr std::int64_t ld_last = 126;
    // Two workloads per leading dimension: without, then with copying.
    std::vector<harness::Workload> copied;
    for (std::int64_t ld = ld_first; ld <= ld_last; ++ld) {
        for (const bool copy : {false, true}) {
            copied.push_back(bench::programWorkload(
                std::string("CopiedMM-") + (copy ? "copy" : "nocopy") +
                    "-ld" + std::to_string(ld),
                [ld, copy] {
                    return workloads::buildCopiedMm(mm_n, ld, mm_block,
                                                    copy);
                }));
        }
    }
    const auto sb = bench::exactSweep(copied, configs);
    util::Table tb({"Leading dim", "NoCopy (stand.)", "Copy (stand.)",
                    "NoCopy (soft.)", "Copy (soft.)"});
    for (std::int64_t ld = ld_first; ld <= ld_last; ++ld) {
        const auto i = static_cast<std::size_t>(2 * (ld - ld_first));
        const auto row = tb.addRow();
        tb.set(row, 0, std::to_string(ld));
        tb.setNumber(row, 1, sb.at(i, 0).stats.amat());
        tb.setNumber(row, 2, sb.at(i + 1, 0).stats.amat());
        tb.setNumber(row, 3, sb.at(i, 1).stats.amat());
        tb.setNumber(row, 4, sb.at(i + 1, 1).stats.amat());
    }
    tb.print(std::cout);

    std::cout << "\nPaper shape check: software control tolerates "
                 "larger block sizes before\npollution hurts; copying "
                 "flattens the leading-dimension sensitivity, and\n"
                 "software assistance lowers the copying cost.\n";
    return 0;
}
