#include "src/harness/bench_options.hh"

#include <cstdlib>
#include <iostream>

#include "src/util/args.hh"
#include "src/util/thread_pool.hh"

namespace sac {
namespace harness {

namespace {

[[noreturn]] void
badCommandLine(const std::string &message)
{
    std::cerr << message << "\n";
    std::exit(2);
}

} // namespace

BenchOptions
BenchOptions::parse(const util::Args &args)
{
    BenchOptions opts;
    opts.jobs = util::ThreadPool::defaultThreads();

    const auto jobs_arg = args.getInt("jobs", 0);
    if (!jobs_arg || *jobs_arg < 0) {
        std::string message = "--jobs expects a non-negative integer";
        if (!jobs_arg && args.valueWasSeparateToken("jobs")) {
            // A trailing bare --jobs swallows the next positional
            // (e.g. a benchmark filter) as its value; name the token
            // so the mistake is obvious.
            message += " (got '" + args.getString("jobs") +
                       "' — did a bare --jobs consume a positional?"
                       " use --jobs=N)";
        }
        badCommandLine(message);
    }
    if (*jobs_arg > 0)
        opts.jobs = static_cast<unsigned>(*jobs_arg);

    if (args.has("emit-json")) {
        const std::string dir = args.getString("emit-json");
        // A bare --emit-json (no following value) parses as the
        // boolean "true"; there is no directory to write to.
        if (dir.empty() || dir == "true")
            badCommandLine("--emit-json expects a directory");
        opts.emitJsonDir = dir;
    }

    if (args.has("preset")) {
        const std::string name = args.getString("preset");
        if (!core::presets().contains(name)) {
            std::string message = "unknown preset \"" + name +
                                  "\"; known presets:";
            for (const auto &key : core::presets().names())
                message += " " + key;
            badCommandLine(message);
        }
        opts.presetName = name;
        opts.preset = core::presets().get(name);
    }

    const auto chunk = args.getInt(
        "trace-chunk", static_cast<std::int64_t>(opts.traceChunk));
    if (!chunk || *chunk <= 0)
        badCommandLine("--trace-chunk expects a positive integer");
    opts.traceChunk = static_cast<std::size_t>(*chunk);

    const auto seed = args.getInt(
        "trace-seed", static_cast<std::int64_t>(opts.traceSeed));
    if (!seed || *seed < 0)
        badCommandLine("--trace-seed expects a non-negative integer");
    opts.traceSeed = static_cast<std::uint64_t>(*seed);

    opts.sample = args.has("sample");
    opts.sampleTuningGiven =
        args.has("sample-window") || args.has("sample-stride") ||
        args.has("sample-warmup") || args.has("sample-ci") ||
        args.has("sample-error");

    const auto count_flag = [&args](const char *key,
                                    std::uint64_t fallback,
                                    std::int64_t min_value) {
        const auto v =
            args.getInt(key, static_cast<std::int64_t>(fallback));
        if (!v || *v < min_value) {
            badCommandLine(std::string("--") + key +
                           " expects an integer >= " +
                           std::to_string(min_value));
        }
        return static_cast<std::uint64_t>(*v);
    };
    opts.sampling.window =
        count_flag("sample-window", opts.sampling.window, 1);
    opts.sampling.stride =
        count_flag("sample-stride", opts.sampling.stride, 1);
    opts.sampling.warmup =
        count_flag("sample-warmup", opts.sampling.warmup, 0);

    if (args.has("checkpoint-dir")) {
        const std::string dir = args.getString("checkpoint-dir");
        // A bare --checkpoint-dir (no following value) parses as the
        // boolean "true"; there is no directory to use.
        if (dir.empty() || dir == "true")
            badCommandLine("--checkpoint-dir expects a directory");
        opts.checkpointDir = dir;
    }
    opts.checkpointRebuild = args.has("checkpoint-rebuild");

    opts.interval = count_flag("interval", opts.interval, 0);
    opts.heatmap = args.has("heatmap");

    const auto real_flag = [&args](const char *key, double fallback) {
        if (!args.has(key))
            return fallback;
        const std::string s = args.getString(key);
        char *end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        if (s.empty() || end != s.c_str() + s.size()) {
            badCommandLine(std::string("--") + key +
                           " expects a number (got '" + s + "')");
        }
        return v;
    };
    double ci = real_flag("sample-ci", opts.sampling.confidence);
    // "--sample-ci 95" reads as a percentage; "0.95" is the level.
    if (ci > 1.0)
        ci /= 100.0;
    opts.sampling.confidence = ci;
    opts.sampling.targetRelativeError =
        real_flag("sample-error", opts.sampling.targetRelativeError);

    if (const auto err = opts.validationError())
        badCommandLine(*err);

    return opts;
}

std::optional<std::string>
BenchOptions::validationError() const
{
    if (sampleTuningGiven && !sample) {
        return "--sample-window/--sample-stride/--sample-warmup/"
               "--sample-ci/--sample-error require --sample";
    }
    if ((interval > 0 || heatmap) && !checkpointDir.empty()) {
        return "--interval/--heatmap instrument an exact re-replay "
               "and cannot be combined with --checkpoint-dir: "
               "restored checkpoint state skips the accesses the "
               "instrumentation would observe";
    }
    if (!checkpointDir.empty() && !sample) {
        return "--checkpoint-dir persists sampled warming state and "
               "requires --sample";
    }
    if (checkpointRebuild && checkpointDir.empty()) {
        return "--checkpoint-rebuild requires --checkpoint-dir";
    }
    if ((interval > 0 || heatmap) && emitJsonDir.empty()) {
        return "--interval/--heatmap write into the manifest "
               "directory and require --emit-json";
    }
    if ((interval > 0 || heatmap) && sample) {
        return "--interval/--heatmap instrument exact replay and "
               "cannot be combined with --sample";
    }
    if (sample) {
        if (const auto err = sampling.validationError())
            return "--sample: " + *err;
    }
    return std::nullopt;
}

BenchOptions
BenchOptions::parse(int argc, const char *const *argv)
{
    util::Args args;
    if (!args.parse(argc, argv))
        badCommandLine("bad command line: " + args.error());
    return parse(args);
}

} // namespace harness
} // namespace sac
