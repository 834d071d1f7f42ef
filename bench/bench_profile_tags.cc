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
    const auto ws = bench::suiteWorkloads();
    // The retagged variants first, each on its own runner so only one
    // is alive; then the shared sweep, whose pool workers would
    // otherwise hold memory the retagging could have reused.
    std::vector<double> none;
    std::vector<double> profile;
    for (const auto &w : ws) {
        const auto &t = bench::benchmarkTrace(w.name);
        const auto soft_amat =
            [&](const char *tag,
                std::function<trace::Trace(const trace::Trace &)> f) {
                harness::Runner variant_runner;
                return bench::exactSweep(
                           {{w.name + "-" + tag, [&t, &f] { return f(t); },
                             {}}},
                           bench::presetConfigs({"soft"}),
                           &variant_runner)
                    .at(0, 0)
                    .stats.amat();
            };
        none.push_back(soft_amat("notags", analysis::stripAllTags));
        profile.push_back(
            soft_amat("profiletags", [](const trace::Trace &tr) {
                return locality::retagFromProfile(tr);
            }));
    }
    const auto tagged = bench::exactSweep(
        ws, bench::presetConfigs({"standard", "soft"}));
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        const double stand = tagged.at(wi, 0).stats.amat();
        const double compiler = tagged.at(wi, 1).stats.amat();
        const auto row = table.addRow();
        table.set(row, 0, ws[wi].name);
        table.setNumber(row, 1, stand);
        table.setNumber(row, 2, none[wi]);
        table.setNumber(row, 3, compiler);
        table.setNumber(row, 4, profile[wi]);
        // Of the distance from no-tags to the better of the two
        // informed variants, how much does the compiler already get?
        const double best = std::min(compiler, profile[wi]);
        const double recovered =
            none[wi] - best > 1e-9
                ? (none[wi] - compiler) / (none[wi] - best)
                : 1.0;
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
