/**
 * @file
 * sacbench: the repository benchmark driver.
 *
 *   sacbench --workload cold-reproduce|warm-resweep|sacd-mixed
 *            [--seed N] [--seconds S] [--trace 0|1] [--small]
 *            [--golden FILE] [--out-dir DIR] [--source-id ID]
 *            [--plant-wrong-digest PREFIX]
 *   sacbench --record-golden [--golden FILE]
 *
 * Prints notes, then one JSON line: correct, attempted, failed and the
 * metrics (end-to-end ones untraced, per-layer ones with --trace 1).
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "src/sim/checkpoint.hh"

namespace {

using namespace sacbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool sanitized = true;
#else
constexpr bool sanitized = false;
#endif
#else
constexpr bool sanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool optimized = true;
#else
constexpr bool optimized = false;
#endif

#ifndef SACBENCH_BUILD_TYPE
#define SACBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SACBENCH_CXX_FLAGS
#define SACBENCH_CXX_FLAGS "unknown"
#endif

// The SAC_*_ENABLED build switches; -1 when the build defines none.
#ifdef SAC_AUDIT_ENABLED
constexpr int auditEnabled = SAC_AUDIT_ENABLED;
#else
constexpr int auditEnabled = -1;
#endif
#ifdef SAC_INTERVAL_ENABLED
constexpr int intervalEnabled = SAC_INTERVAL_ENABLED;
#else
constexpr int intervalEnabled = -1;
#endif
#ifdef SAC_TRACE_EVENTS_ENABLED
constexpr int traceEventsEnabled = SAC_TRACE_EVENTS_ENABLED;
#else
constexpr int traceEventsEnabled = -1;
#endif

double
cpuMhz()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("cpu MHz", 0) == 0)
            return std::stod(line.substr(line.find(':') + 1));
    }
    return 0.0;
}

sac::util::Json
hostShape(const Options &opt, unsigned nproc)
{
    sac::util::Json h = sac::util::Json::object();
    h.set("nproc", static_cast<std::uint64_t>(nproc));
    h.set("jobs", static_cast<std::uint64_t>(opt.jobs));
    h.set("cpu_mhz", cpuMhz());
    h.set("compiler", __VERSION__);
    h.set("source", opt.sourceId);
    h.set("build_type", SACBENCH_BUILD_TYPE);
    h.set("cxx_flags", SACBENCH_CXX_FLAGS);
    h.set("optimized", optimized);
    h.set("sanitized", sanitized);
    h.set("SAC_AUDIT_ENABLED", auditEnabled);
    h.set("SAC_INTERVAL_ENABLED", intervalEnabled);
    h.set("SAC_TRACE_EVENTS_ENABLED", traceEventsEnabled);
    return h;
}

int
usage(const std::string &why)
{
    std::cerr << "sacbench: " << why
              << "\nusage: sacbench --workload cold-reproduce|"
                 "warm-resweep|sacd-mixed [--seed N] [--seconds S] "
                 "[--trace 0|1] [--small] [--golden FILE] [--out-dir DIR] "
                 "[--source-id ID] [--plant-wrong-digest PREFIX]\n"
                 "       sacbench --record-golden [--golden FILE]\n";
    return 2;
}

/** Parse a non-negative number; false on junk. */
bool
number(const std::string &text, double *out)
{
    std::istringstream is(text);
    double v = 0.0;
    if (!(is >> v) || !is.eof() || v < 0.0)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        double v = 0.0;
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            if (!number(value(), &v))
                return usage("--seed expects a non-negative integer");
            opt.seed = static_cast<std::uint64_t>(v);
        } else if (arg == "--seconds") {
            if (!number(value(), &v))
                return usage("--seconds expects a non-negative number");
            opt.seconds = v;
        } else if (arg == "--trace") {
            const std::string t = value();
            if (t != "0" && t != "1")
                return usage("--trace expects 0 or 1");
            opt.trace = t == "1";
        } else if (arg == "--small") {
            opt.small = true;
        } else if (arg == "--golden") {
            opt.golden = value();
        } else if (arg == "--record-golden") {
            opt.recordGolden = true;
        } else if (arg == "--plant-wrong-digest") {
            opt.plantWrongDigest = value();
        } else if (arg == "--out-dir") {
            opt.outDir = value();
        } else if (arg == "--source-id") {
            opt.sourceId = value();
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (!opt.recordGolden && opt.workload != "cold-reproduce" &&
        opt.workload != "warm-resweep" && opt.workload != "sacd-mixed")
        return usage("unknown workload '" + opt.workload + "'");

    if (!optimized || sanitized) {
        std::cerr << "sacbench: refusing to measure an "
                  << (sanitized ? "sanitizer" : "unoptimised")
                  << " build (" << SACBENCH_BUILD_TYPE << ", "
                  << SACBENCH_CXX_FLAGS
                  << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opt.jobs = std::min(4u, nproc);
    std::filesystem::create_directories(opt.outDir);

    Golden golden;
    Report report;
    bool ran = false;
    if (opt.recordGolden) {
        golden.setRecording(true);
        ran = recordGolden(opt, golden, report);
        if (ran && !golden.save(opt.golden))
            report.fail("cannot write " + opt.golden);
    } else {
        std::string error;
        if (!golden.load(opt.golden, &error)) {
            std::cerr << "sacbench: " << error << "\n";
            return 2;
        }
        if (!opt.plantWrongDigest.empty() &&
            golden.plantWrong(opt.plantWrongDigest) == 0) {
            std::cerr << "sacbench: no golden entry starts with "
                      << opt.plantWrongDigest << "\n";
            return 2;
        }
        ran = opt.trace ? runTraced(opt, golden, report)
                        : runWorkload(opt, golden, report);
    }
    if (!ran)
        std::cerr << "sacbench: the run did not complete\n";
    if (report.attempted == 0)
        report.attempted = 1;

    std::cout << "host: " << hostShape(opt, nproc).dump(0) << "\n";
    std::cout << "workload: " << opt.workload << ", seed " << opt.seed
              << ", seconds " << opt.seconds << ", trace " << opt.trace
              << (opt.small ? ", small" : "") << "\n";
    for (const auto &line : report.notes)
        std::cout << line << "\n";
    std::cout << "failed_frac: "
              << static_cast<double>(report.failed) /
                     static_cast<double>(report.attempted)
              << " (" << report.failed << " of " << report.attempted
              << " operations)\n";
    for (const auto &m : report.metrics)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    for (const auto &why : report.failures)
        std::cerr << "FAILED: " << why << "\n";

    sac::util::Json metrics = sac::util::Json::object();
    for (const auto &m : report.metrics) {
        sac::util::Json entry = sac::util::Json::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        metrics.set(m.name, std::move(entry));
    }
    sac::util::Json out = sac::util::Json::object();
    out.set("correct", ran && report.failed == 0);
    out.set("attempted", report.attempted);
    out.set("failed", report.failed);
    out.set("metrics", std::move(metrics));
    std::cout << out.dump(0) << std::endl;
    return ran ? 0 : 1;
}

namespace sacbench {

bool
recordGolden(const Options &opt, Golden &golden, Report &report)
{
    using namespace sac;
    // Every cell any seed can request, through Runner::run with a sink.
    const auto paper = paperWorkloads(false);
    const auto traces = generateTraces(paper, opt.jobs);
    const auto copies = copyingWorkloads(traces);
    for (const auto &t : traces)
        golden.check("trace|" + t->name(), hex64(sim::hashTrace(*t)),
                     report);
    for (const auto &t : generateTraces(kernelWorkloads(false), opt.jobs))
        golden.check("trace|" + t->name(), hex64(sim::hashTrace(*t)),
                     report);

    const std::string library = opt.outDir + "/record-lib";
    std::filesystem::remove_all(library);
    buildLibraries(traces, library, opt.jobs);
    harness::Runner runner;
    std::vector<harness::SweepRequest> universe{
        makeRequest(copies, presetConfigs(core::presets().names()),
                    harness::amatMetric(), opt.jobs),
        makeRequest(kernelWorkloads(false),
                    presetConfigs({"standard", "soft"}),
                    harness::amatMetric(), opt.jobs),
        makeRequest(copies, presetConfigs({"standard", "2way"}),
                    harness::missRatioMetric(), opt.jobs),
    };
    for (auto &nr : warmRequests(copies, library, opt.jobs, nullptr))
        universe.push_back(nr.request);
    for (const auto &req : universe) {
        runner.run(req);
        report.attempted += checkCells(runner, req, golden, report);
    }
    std::filesystem::remove_all(library);

    // Table digests: one pass of each batch workload, full and small.
    for (const bool small : {false, true}) {
        for (const char *w : {"cold-reproduce", "warm-resweep"}) {
            Options one = opt;
            one.workload = w;
            one.small = small;
            one.seconds = 0.0;
            Report ignored;
            if (!runWorkload(one, golden, ignored))
                return false;
            report.failed += ignored.failed;
            report.failures.insert(report.failures.end(),
                                   ignored.failures.begin(),
                                   ignored.failures.end());
        }
    }
    return true;
}

} // namespace sacbench
