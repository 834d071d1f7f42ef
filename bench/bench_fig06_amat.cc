/**
 * @file
 * Figure 6 reproduction: performance of software-assisted caches (I).
 * 6a — AMAT for Standard, temporal-only, spatial-only and the full
 * mechanism; 6b — repartition of cache hits between the main cache
 * and the bounce-back cache under the full mechanism.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Figure 6",
                       "AMAT of software control (6a) and hit "
                       "repartition (6b)");

    std::cout << "\nFigure 6a: performance of software control "
                 "(AMAT)\n\n";
    bench::suiteTable(bench::presetConfigs({"standard", "soft-temporal",
                                            "soft-spatial", "soft"}),
                      harness::amatMetric())
        .print(std::cout);

    std::cout << "\nFigure 6b: repartition of cache hits (Soft.)\n\n";
    util::Table table({"Benchmark", "Main cache", "Bounce-back"});
    const auto soft = bench::exactSweep(bench::suiteWorkloads(),
                                        bench::presetConfigs({"soft"}));
    for (const auto &cell : soft.cells) {
        const auto row = table.addRow();
        table.set(row, 0, cell.workload);
        table.setNumber(row, 1, cell.stats.mainHitShare(), 3);
        table.setNumber(row, 2, cell.stats.auxHitShare(), 3);
    }
    table.print(std::cout);

    std::cout << "\nPaper shape check: the combined mechanism always "
                 "wins; software control is\nnever worse than Standard; "
                 "most hits stay in the main cache thanks to the\n"
                 "bounce-back mechanism.\n";
    return 0;
}
