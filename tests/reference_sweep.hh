/**
 * @file
 * Test-local references for the sweep tests: figure tables and cell
 * statistics computed by calling the simulator directly
 * (core::simulateTrace), never through harness::Runner, plus a
 * shorthand for building a SweepRequest. Runner::run() results are
 * checked against these instead of against another Runner path.
 */

#ifndef SAC_TESTS_REFERENCE_SWEEP_HH
#define SAC_TESTS_REFERENCE_SWEEP_HH

#include <string>
#include <vector>

#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/harness/experiment.hh"
#include "src/harness/sweep.hh"
#include "src/util/table.hh"

namespace sac {
namespace testref {

/** A request over @p workloads x @p configs with everything else
 *  defaulted (engine Auto, no telemetry). */
inline harness::SweepRequest
request(std::vector<harness::Workload> workloads,
        std::vector<core::Config> configs, harness::Metric metric,
        unsigned jobs = 1,
        harness::EngineSelect engine = harness::EngineSelect::Auto)
{
    harness::SweepRequest req;
    req.workloads = std::move(workloads);
    req.configs = std::move(configs);
    req.metric = std::move(metric);
    req.jobs = jobs;
    req.engine = engine;
    return req;
}

/**
 * The classic figure table by direct exact replay: one row per
 * workload, one column per configuration, cells = @p metric of
 * core::simulateTrace().
 */
inline util::Table
referenceTable(const std::vector<harness::Workload> &workloads,
               const std::vector<core::Config> &configs,
               const harness::Metric &metric)
{
    std::vector<std::string> headers{"Benchmark"};
    for (const auto &cfg : configs)
        headers.push_back(cfg.name);
    util::Table table(std::move(headers));
    for (const auto &w : workloads) {
        const trace::Trace t = w.build();
        const auto row = table.addRow();
        table.set(row, 0, w.name);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            table.setNumber(row, c + 1,
                            metric.extract(
                                core::simulateTrace(t, configs[c])),
                            metric.decimals);
        }
    }
    return table;
}

} // namespace testref
} // namespace sac

#endif // SAC_TESTS_REFERENCE_SWEEP_HH
