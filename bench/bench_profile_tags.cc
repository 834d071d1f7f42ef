/**
 * @file
 * Tag-quality headroom experiment, extending Figure 10a's question:
 * how much of the gap left by the simple compile-time analysis could
 * better information recover? Compares AMAT under no tags, the
 * Section-2.3 compiler tags, and profile-derived tags (which see
 * through CALLs, aliasing and indirection).
 */

#include <iostream>

#include "bench_common.hh"
#include "src/util/stats.hh"
#include "src/analysis/tag_transform.hh"
#include "src/locality/profile_tagger.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Tag-quality headroom (extends Figure 10a)",
                       "No tags vs compiler tags vs profile tags "
                       "(AMAT, Soft.)");

    std::cout << '\n';
    util::Table table({"Benchmark", "Stand.", "Soft. no tags",
                       "Soft. compiler tags", "Soft. profile tags",
                       "headroom recovered"});
    // Two streamed variants of each workload's resident trace, all in
    // one sweep; the profile pass runs once per traversal.
    const auto ws = bench::suiteWorkloads();
    std::vector<harness::Workload> variants;
    for (const auto &w : ws) {
        variants.push_back(bench::tagVariant(
            w.name, "notags", [](const trace::Trace &) {
                return analysis::stripTags(true, true);
            }));
        variants.push_back(bench::tagVariant(
            w.name, "profiletags", [](const trace::Trace &t) {
                return analysis::retag(locality::profileTags(t).tags);
            }));
    }
    const auto retagged =
        bench::exactSweep(variants, bench::presetConfigs({"soft"}));
    const auto tagged = bench::exactSweep(
        ws, bench::presetConfigs({"standard", "soft"}));
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const double stand = tagged.at(wi, 0).stats.amat();
        const double compiler = tagged.at(wi, 1).stats.amat();
        const double none = retagged.at(2 * wi, 0).stats.amat();
        const double profile = retagged.at(2 * wi + 1, 0).stats.amat();
        const auto row = table.addRow();
        table.set(row, 0, ws[wi].name);
        table.setNumber(row, 1, stand);
        table.setNumber(row, 2, none);
        table.setNumber(row, 3, compiler);
        table.setNumber(row, 4, profile);
        // Of the distance from no-tags to the better of the two
        // informed variants, how much does the compiler already get?
        const double best = std::min(compiler, profile);
        const double recovered =
            none - best > 1e-9 ? (none - compiler) / (none - best) : 1.0;
        table.set(row, 5, util::formatPercent(recovered));
    }
    table.print(std::cout);

    std::cout << "\nExpected: profile tags beat compiler tags most "
                 "on the CALL-poisoned\ndusty-deck proxies (MDG, BDN, "
                 "TRF) — the paper's Figure-10a observation that\n"
                 "instrumentation coverage, not the mechanisms, is "
                 "the limiter.\n";
    return 0;
}
