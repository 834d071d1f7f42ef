/**
 * @file
 * Robustness experiment for the paper's safety claim: "note that
 * software-assisted data caches perform better than standard caches
 * in any case, so software-assistance appears to be safe"
 * (Section 3.2). We stress the claim by stripping and corrupting the
 * software tags and checking whether the assisted cache can fall
 * below the standard baseline.
 */

#include <iostream>

#include "bench_common.hh"
#include "src/analysis/tag_transform.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Tag-robustness study",
                       "Soft. AMAT under stripped / corrupted tags "
                       "vs Stand.");

    std::cout << "\nAMAT of Soft. as the tag quality degrades "
                 "(flip fraction = share of static references whose "
                 "tags are inverted)\n\n";
    util::Table table({"Benchmark", "Stand.", "Soft.", "no temp",
                       "no spat", "no tags", "flip 10%", "flip 25%",
                       "flip 50%", "flip 100%"});
    std::size_t unsafe = 0;
    const auto ws = bench::suiteWorkloads();
    const auto standard =
        bench::exactSweep(ws, bench::presetConfigs({"standard"}));
    const auto soft = bench::presetConfigs({"soft"});
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const auto &t = bench::benchmarkTrace(ws[wi].name);
        // One runner per variant: only one variant trace is alive.
        const auto amat_of =
            [&](const char *tag,
                std::function<trace::Trace(const trace::Trace &)> f) {
                harness::Runner variant_runner;
                return bench::exactSweep(
                           {{ws[wi].name + "-" + tag,
                             [&t, &f] { return f(t); },
                             {}}},
                           soft, &variant_runner)
                    .at(0, 0)
                    .stats.amat();
            };
        const auto flip = [](double fraction) {
            return [fraction](const trace::Trace &tr) {
                return analysis::corruptTags(tr, fraction);
            };
        };
        const double variants[] = {
            amat_of("tags", [](const trace::Trace &tr) { return tr; }),
            amat_of("notemp", analysis::stripTemporalTags),
            amat_of("nospat", analysis::stripSpatialTags),
            amat_of("notags", analysis::stripAllTags),
            amat_of("flip10", flip(0.10)),
            amat_of("flip25", flip(0.25)),
            amat_of("flip50", flip(0.50)),
            amat_of("flip100", flip(1.00)),
        };
        const double stand = standard.at(wi, 0).stats.amat();
        const auto row = table.addRow();
        table.set(row, 0, ws[wi].name);
        table.setNumber(row, 1, stand);
        for (std::size_t i = 0; i < std::size(variants); ++i) {
            table.setNumber(row, i + 2, variants[i]);
            if (variants[i] > stand * 1.02)
                ++unsafe;
        }
    }
    table.print(std::cout);

    std::cout << "\nCells exceeding Stand. by more than 2%: " << unsafe
              << "\nWith all tags stripped, Soft. degenerates to a "
                 "victim cache and can only\nhelp; corrupted tags can "
                 "hurt by fetching useless virtual lines and\n"
                 "protecting dead data, which bounds the safety claim "
                 "to *correct* (even if\nincomplete) compiler "
                 "information.\n";
    return 0;
}
