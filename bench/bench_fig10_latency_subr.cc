/**
 * @file
 * Figure 10 reproduction. 10a — AMAT of the most time-consuming
 * (kernel-only, fully instrumentable) Perfect Club subroutines under
 * Standard vs Soft; 10b — the AMAT gain (Standard minus Soft) as the
 * memory latency sweeps from 5 to 30 cycles.
 */

#include <iostream>

#include "bench_common.hh"
#include "src/util/stats.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Figure 10",
                       "Kernel-only subroutines (10a) and memory "
                       "latency (10b)");

    std::cout << "\nFigure 10a: most time-consuming Perfect Club "
                 "subroutines (AMAT)\n\n";
    std::vector<harness::Workload> kernels;
    for (const auto &b : workloads::kernelOnlyBenchmarks())
        kernels.push_back(
            bench::programWorkload(b.name + "-kernel", b.build));
    const auto sa = bench::exactSweep(
        kernels, bench::presetConfigs({"standard", "soft"}));
    util::Table ta({"Subroutine", "Stand.", "Soft.", "Improvement"});
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const double stand = sa.at(i, 0).stats.amat();
        const double soft = sa.at(i, 1).stats.amat();
        const auto row = ta.addRow();
        ta.set(row, 0, workloads::kernelOnlyBenchmarks()[i].name);
        ta.setNumber(row, 1, stand);
        ta.setNumber(row, 2, soft);
        ta.set(row, 3, util::formatPercent(1.0 - soft / stand));
    }
    ta.print(std::cout);

    std::cout << "\nFigure 10b: influence of memory latency "
                 "(AMAT Stand. - AMAT Soft.)\n\n";
    const Cycle latencies[] = {5, 10, 15, 20, 25, 30};
    std::vector<std::string> headers{"Benchmark"};
    std::vector<core::Config> pairs; // (Stand., Soft.) per latency
    for (const auto lat : latencies) {
        headers.push_back("lat=" + std::to_string(lat));
        for (const char *key : {"standard", "soft"}) {
            auto cfg = core::presets().get(key);
            cfg.timing.memoryLatency = lat;
            cfg.name += " lat" + std::to_string(lat);
            pairs.push_back(std::move(cfg));
        }
    }
    const auto ws = bench::suiteWorkloads();
    const auto sweep = bench::exactSweep(ws, pairs);
    util::Table tb(std::move(headers));
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const auto row = tb.addRow();
        tb.set(row, 0, ws[wi].name);
        for (std::size_t c = 0; c < std::size(latencies); ++c) {
            const double gap = sweep.at(wi, 2 * c).stats.amat() -
                               sweep.at(wi, 2 * c + 1).stats.amat();
            tb.setNumber(row, c + 1, gap, 3);
        }
    }
    tb.print(std::cout);

    std::cout << "\nPaper shape check: fully instrumented kernels gain "
                 "clearly more than the\nCALL-poisoned full codes; the "
                 "gain grows very regularly with memory latency\nand is "
                 "small below ~10 cycles.\n";
    return 0;
}
