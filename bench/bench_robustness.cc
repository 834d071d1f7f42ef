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
    // Each variant streams its workload's resident trace through a
    // fresh mutator; all 63 variant cells run in one sweep.
    const std::pair<const char *, analysis::TagMutator> kinds[] = {
        {"notemp", analysis::stripTags(true, false)},
        {"nospat", analysis::stripTags(false, true)},
        {"notags", analysis::stripTags(true, true)},
        {"flip10", analysis::flipTags(0.10)},
        {"flip25", analysis::flipTags(0.25)},
        {"flip50", analysis::flipTags(0.50)},
        {"flip100", analysis::flipTags(1.00)},
    };
    const auto ws = bench::suiteWorkloads();
    std::vector<harness::Workload> variants;
    for (const auto &w : ws) {
        for (const auto &[tag, m] : kinds)
            variants.push_back(bench::tagVariant(
                w.name, tag, [m](const trace::Trace &) { return m; }));
    }
    const auto base =
        bench::exactSweep(ws, bench::presetConfigs({"standard", "soft"}));
    const auto soft =
        bench::exactSweep(variants, bench::presetConfigs({"soft"}));

    std::size_t unsafe = 0;
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const double stand = base.at(wi, 0).stats.amat();
        const auto row = table.addRow();
        table.set(row, 0, ws[wi].name);
        table.setNumber(row, 1, stand);
        for (std::size_t i = 0; i <= std::size(kinds); ++i) {
            const double amat =
                (i ? soft.at(wi * std::size(kinds) + i - 1, 0)
                   : base.at(wi, 1))
                    .stats.amat();
            table.setNumber(row, i + 2, amat);
            if (amat > stand * 1.02)
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
