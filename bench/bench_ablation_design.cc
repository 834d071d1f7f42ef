/**
 * @file
 * Ablation studies of the design choices the paper discusses in
 * prose (Sections 2.1, 2.2, 3.2, 4.4):
 *  - bounce-back cache size ("small bounce-back caches perform
 *    nearly as well as large ones");
 *  - bounce-back associativity ("a 4-way bounce-back cache would
 *    perform reasonably well");
 *  - aux access time (the conservative 3-cycle choice);
 *  - the dynamic temporal-bit reset (pollution by dead data);
 *  - the virtual-line coherence check (traffic saved);
 *  - variable-length virtual lines (Section 3.2 extension);
 *  - prefetch degree across memory latencies (Section 4.4).
 */

#include <iostream>

#include "bench_common.hh"
#include "src/util/distribution.hh"
#include "src/util/stats.hh"
#include "src/trace/timing_model.hh"

int
main(int argc, char **argv)
{
    sac::bench::initBench(argc, argv);
    using namespace sac;

    bench::printBanner("Design ablations",
                       "Tradeoffs discussed in the paper's prose");

    std::cout << "\nBounce-back cache size (AMAT, Soft.)\n\n";
    {
        const std::uint32_t sizes[] = {2, 4, 8, 16, 32, 64};
        std::vector<core::Config> configs;
        for (const auto n : sizes) {
            auto c = core::presets().get("soft");
            c.auxLines = n;
            c.name = "BB=" + std::to_string(n * 32) + "B";
            configs.push_back(c);
        }
        bench::suiteTable(configs, bench::amatOf).print(std::cout);
    }

    std::cout << "\nBounce-back associativity (AMAT, Soft., 8 lines)\n\n";
    {
        std::vector<core::Config> configs;
        for (const std::uint32_t assoc : {1u, 2u, 4u, 0u}) {
            auto c = core::presets().get("soft");
            c.auxAssoc = assoc;
            c.name = assoc == 0 ? "BB full-assoc"
                                : "BB " + std::to_string(assoc) +
                                      "-way";
            configs.push_back(c);
        }
        bench::suiteTable(configs, bench::amatOf).print(std::cout);
    }

    std::cout << "\nAux access time (AMAT, Soft.)\n\n";
    {
        std::vector<core::Config> configs;
        for (const Cycle t : {2u, 3u, 5u}) {
            auto c = core::presets().get("soft");
            c.timing.auxHitTime = t;
            c.name = "BB access " + std::to_string(t) + "cy";
            configs.push_back(c);
        }
        bench::suiteTable(configs, bench::amatOf).print(std::cout);
    }

    std::cout << "\nDynamic temporal-bit reset (AMAT, Soft.)\n\n";
    {
        auto on = core::presets().get("soft");
        on.name = "reset on (paper)";
        auto off = core::presets().get("soft");
        off.resetTemporalBitOnBounce = false;
        off.name = "reset off";
        bench::suiteTable({on, off}, bench::amatOf).print(std::cout);
    }

    std::cout << "\nVirtual-line coherence check (words/ref, Soft.)\n\n";
    {
        auto on = core::presets().get("soft");
        on.name = "check on (paper)";
        auto off = core::presets().get("soft");
        off.virtualLineCoherenceCheck = false;
        off.name = "check off";
        bench::suiteTable({on, off}, bench::wordsOf).print(std::cout);
    }

    std::cout << "\nVariable-length virtual lines (AMAT; Section 3.2 "
                 "extension)\n\n";
    bench::suiteTable({core::presets().get("soft"), core::presets().get("variable")},
                      bench::amatOf)
        .print(std::cout);

    std::cout << "\nPrefetch degree x memory latency (AMAT on MV, "
                 "Soft.+Prefetching)\n\n";
    {
        const Cycle latencies[] = {15u, 20u, 25u, 30u, 40u};
        const std::uint32_t degrees[] = {1u, 2u, 4u};
        std::vector<core::Config> configs;
        for (const Cycle lat : latencies) {
            for (const std::uint32_t degree : degrees) {
                auto c = core::presets().get("soft-prefetch");
                c.timing.memoryLatency = lat;
                c.prefetchDegree = degree;
                c.name = "pf d" + std::to_string(degree) + " l" +
                         std::to_string(lat);
                configs.push_back(std::move(c));
            }
        }
        std::vector<harness::Workload> mv;
        for (auto &w : bench::suiteWorkloads()) {
            if (w.name == "MV")
                mv.push_back(std::move(w));
        }
        const auto sweep = bench::exactSweep(mv, configs);
        util::Table table({"Latency", "degree 1", "degree 2",
                           "degree 4"});
        for (std::size_t l = 0; l < std::size(latencies); ++l) {
            const auto row = table.addRow();
            table.set(row, 0, std::to_string(latencies[l]));
            for (std::size_t d = 0; d < std::size(degrees); ++d) {
                table.setNumber(
                    row, d + 1,
                    sweep.at(0, l * std::size(degrees) + d).stats.amat());
            }
        }
        table.print(std::cout);
    }

    std::cout << "\nPhysical line size under software assistance "
                 "(AMAT; paper Section 3.2:\n16-byte and 32-byte "
                 "physical lines proved similar)\n\n";
    {
        auto half = core::presets().get("soft");
        half.lineBytes = 16;
        half.name = "Soft. Ls=16";
        auto full = core::presets().get("soft");
        full.name = "Soft. Ls=32";
        bench::suiteTable({half, full}, bench::amatOf)
            .print(std::cout);
    }

    std::cout << "\nWrite buffer depth (AMAT, Soft.)\n\n";
    {
        std::vector<core::Config> configs;
        for (const std::uint32_t n : {1u, 2u, 8u, 32u}) {
            auto c = core::presets().get("soft");
            c.writeBufferEntries = n;
            c.name = "WB " + std::to_string(n);
            configs.push_back(c);
        }
        bench::suiteTable(configs, bench::amatOf).print(std::cout);
    }

    std::cout << "\nIssue-rate sensitivity (AMAT on MV; the paper notes cache designs are\n"
                 "sensitive to the processor request issue rate)\n\n";
    {
        struct Rate
        {
            const char *label;
            util::DiscreteDistribution dist;
        };
        const Rate rates[] = {
            {"1 ref/cycle (superscalar)",
             util::DiscreteDistribution({{1, 1.0}})},
            {"Figure 4b (paper)",
             trace::TimingModel::figure4bDistribution()},
            {"1 ref / 8 cycles (slow)",
             util::DiscreteDistribution({{8, 1.0}})},
        };
        const auto configs =
            bench::presetConfigs({"standard", "soft", "soft-prefetch"});
        std::vector<harness::Workload> mv;
        for (const auto &rate : rates) {
            mv.push_back(bench::programWorkload(
                std::string("MV-issue-rate-") + rate.label,
                [] { return workloads::buildMv(); }, rate.dist));
        }
        const auto sweep = bench::exactSweep(mv, configs);
        util::Table table({"Issue rate", "Stand.", "Soft.",
                           "Soft.+Prefetching"});
        for (std::size_t r = 0; r < std::size(rates); ++r) {
            const auto row = table.addRow();
            table.set(row, 0, rates[r].label);
            for (std::size_t c = 0; c < configs.size(); ++c)
                table.setNumber(row, c + 1, sweep.at(r, c).stats.amat());
        }
        table.print(std::cout);
    }

    std::cout << "\nExpected: small bounce-back caches rival large "
                 "ones; 4-way rivals fully\nassociative; deeper "
                 "prefetching only pays at long latencies. In the\n"
                 "blocking model the plain mechanisms are issue-rate "
                 "insensitive (no overlap\nto exploit), while "
                 "prefetching needs issue slack to land its lines.\n";
    return 0;
}
