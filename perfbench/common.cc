/**
 * @file
 * Statistics, oracle, inputs and span recorder of the benchmark
 * driver.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "src/core/config.hh"
#include "src/core/soft_cache.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/sampling.hh"
#include "src/telemetry/manifest.hh"
#include "src/trace/trace_source.hh"
#include "src/workloads/workloads.hh"

namespace sacbench {

using namespace sac;

double
since(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
tailPercentile(std::size_t samples)
{
    double best = 50.0;
    for (const double p : {90.0, 95.0, 99.0, 99.9}) {
        if (static_cast<double>(samples) * (100.0 - p) >= 1000.0 - 1e-9)
            best = p;
    }
    return best;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
hexDigest(const std::string &s)
{
    return hex64(telemetry::fnv1a(s));
}

// --- Golden ---------------------------------------------------------------

bool
Golden::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read golden file " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const auto doc = util::Json::parse(ss.str(), error);
    if (!doc || !doc->isObject()) {
        *error = "malformed golden file " + path;
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, value] : doc->members())
        entries_[key] = value.asString();
    return true;
}

bool
Golden::save(const std::string &path) const
{
    util::Json doc = util::Json::object();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[key, value] : entries_)
            doc.set(key, value);
    }
    std::ofstream out(path);
    out << doc.dump(1) << '\n';
    return static_cast<bool>(out);
}

namespace {

/** @p key starts with @p pattern, where each '*' matches any run. */
bool
matchesPrefix(std::string_view pattern, std::string_view key)
{
    const std::size_t star = pattern.find('*');
    if (star == std::string_view::npos)
        return key.starts_with(pattern);
    if (!key.starts_with(pattern.substr(0, star)))
        return false;
    for (std::size_t at = star; at <= key.size(); ++at) {
        if (matchesPrefix(pattern.substr(star + 1), key.substr(at)))
            return true;
    }
    return false;
}

} // namespace

std::size_t
Golden::plantWrong(const std::string &pattern)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (auto &[key, value] : entries_) {
        if (matchesPrefix(pattern, key)) {
            value = "planted-wrong-" + value;
            ++n;
        }
    }
    return n;
}

bool
Golden::check(const std::string &key, const std::string &actual,
              Report &report)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (recording_) {
        const auto [it, fresh] = entries_.emplace(key, actual);
        if (!fresh && it->second != actual) {
            report.fail("non-deterministic digest while recording " +
                        key);
            return false;
        }
        return true;
    }
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        report.fail("no golden digest for " + key);
        return false;
    }
    if (it->second != actual) {
        report.fail("digest mismatch for " + key + ": expected " +
                    it->second + ", got " + actual);
        return false;
    }
    return true;
}

std::string
cellKey(const std::string &workload, const std::string &cache_key,
        const std::string &engine)
{
    return "cell|" + workload + "|" + hexDigest(cache_key) + "|" +
           engine;
}

bool
manifestDigest(const util::Json &manifest, std::string *key,
               std::string *digest)
{
    const util::Json *doc = &manifest;
    if (!doc->isObject())
        return false;
    const util::Json *workload = doc->find("workload");
    const util::Json *cache_key = doc->find("cache_key");
    const util::Json *engine = doc->find("engine");
    const util::Json *counters = doc->find("counters");
    const util::Json *metrics = doc->find("metrics");
    if (!workload || !cache_key || !counters || !metrics)
        return false;
    const std::string engine_name =
        engine ? engine->asString() : "exact-replay";
    util::Json kept = util::Json::object();
    for (const auto &[name, value] : metrics->members()) {
        if (name != "checkpoint" && name != "stack")
            kept.set(name, value);
    }
    *key = cellKey(workload->asString(), cache_key->asString(),
                   engine_name);
    *digest = hexDigest(counters->dump(0) + kept.dump(0));
    return true;
}

std::string
tableDigest(const util::Table &table,
            const harness::SweepRequest &request)
{
    std::vector<std::tuple<std::string, std::string, std::string>>
        cells;
    for (std::size_t r = 0; r < table.rows(); ++r) {
        for (std::size_t c = 1; c < table.cols(); ++c) {
            const std::string column =
                table.header(c) + "@" +
                (c - 1 < request.configs.size()
                     ? hexDigest(request.configs[c - 1].cacheKey())
                     : std::string("?"));
            cells.emplace_back(table.cell(r, 0), column,
                               table.cell(r, c));
        }
    }
    std::sort(cells.begin(), cells.end());
    std::string flat;
    for (const auto &[row, column, value] : cells)
        flat += row + '\x1f' + column + '\x1f' + value + '\x1e';
    return hexDigest(flat);
}

bool
checkTable(const util::Table &table,
           const harness::SweepRequest &request, const std::string &key,
           Golden &golden, Report &report)
{
    if (table.rows() != request.workloads.size() ||
        table.cols() != request.configs.size() + 1) {
        report.fail("table " + key + " has the wrong shape");
        return false;
    }
    for (std::size_t r = 0; r < table.rows(); ++r) {
        if (table.cell(r, 0) != request.workloads[r].name) {
            report.fail("table " + key + " row " + std::to_string(r) +
                        " is not " + request.workloads[r].name);
            return false;
        }
    }
    for (std::size_t c = 0; c < request.configs.size(); ++c) {
        if (table.header(c + 1) != request.configs[c].name) {
            report.fail("table " + key + " column " +
                        std::to_string(c + 1) + " is not " +
                        request.configs[c].name);
            return false;
        }
    }
    return golden.check(key, tableDigest(table, request), report);
}

std::size_t
checkCells(harness::Runner &runner, harness::SweepRequest request,
           Golden &golden, Report &report,
           const std::function<void(const util::Json &)> &inspect)
{
    std::vector<std::string> documents;
    std::mutex mutex;
    request.telemetry.sink = [&](const std::string &,
                                 const std::string &document) {
        std::lock_guard<std::mutex> lock(mutex);
        documents.push_back(document);
    };
    const harness::SweepResult result = runner.run(request);
    if (documents.size() != result.cells.size()) {
        report.fail("re-run emitted " +
                    std::to_string(documents.size()) +
                    " manifests for " +
                    std::to_string(result.cells.size()) + " cells");
    }
    for (const std::string &doc : documents) {
        const auto parsed = util::Json::parse(doc);
        std::string key;
        std::string digest;
        if (!parsed || !manifestDigest(*parsed, &key, &digest)) {
            report.fail("unparsable manifest document");
            continue;
        }
        golden.check(key, digest, report);
        if (inspect)
            inspect(*parsed);
    }
    return documents.size();
}

// --- Inputs ---------------------------------------------------------------

std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<workloads::Benchmark>
paperPrograms(bool small)
{
    std::vector<workloads::Benchmark> out;
    for (const auto &b : workloads::paperBenchmarks()) {
        if (!small || b.name == "MDG" || b.name == "TRF" ||
            b.name == "SpMV")
            out.push_back(b);
    }
    return out;
}

std::vector<workloads::Benchmark>
kernelPrograms(bool small)
{
    std::vector<workloads::Benchmark> out;
    if (!small) {
        for (const std::int64_t b : {20, 100, 1200}) {
            out.push_back({"BlockedMV-b" + std::to_string(b), [b] {
                               return workloads::buildBlockedMv(1200, b);
                           }});
        }
    }
    for (const std::int64_t ld : {116, 126}) {
        for (const bool copy : {false, true}) {
            if (small && (ld != 116 || copy))
                continue;
            out.push_back({std::string("CopiedMM-") +
                               (copy ? "copy" : "nocopy") + "-ld" +
                               std::to_string(ld),
                           [ld, copy] {
                               return workloads::buildCopiedMm(80, ld, 16,
                                                               copy);
                           }});
        }
    }
    return out;
}

std::vector<harness::Workload>
generatingWorkloads(const std::vector<workloads::Benchmark> &programs)
{
    std::vector<harness::Workload> out;
    for (const auto &b : programs) {
        out.push_back({b.name,
                       [b] {
                           trace::Trace t =
                               workloads::makeTaggedTrace(b.build());
                           t.setName(b.name);
                           return t;
                       },
                       {}});
    }
    return out;
}

std::vector<harness::Workload>
paperWorkloads(bool small)
{
    return generatingWorkloads(paperPrograms(small));
}

std::vector<harness::Workload>
kernelWorkloads(bool small)
{
    return generatingWorkloads(kernelPrograms(small));
}

std::vector<harness::Workload>
copyingWorkloads(const std::vector<SharedTrace> &traces)
{
    std::vector<harness::Workload> out;
    for (const SharedTrace &t : traces)
        out.push_back({t->name(), [t] { return *t; }, {}});
    return out;
}

std::vector<SharedTrace>
generateTraces(const std::vector<harness::Workload> &workloads,
               unsigned jobs)
{
    std::vector<SharedTrace> out(workloads.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    const unsigned n = std::max(1u, std::min<unsigned>(
                                        jobs, static_cast<unsigned>(
                                                  workloads.size())));
    for (unsigned i = 0; i < n; ++i) {
        threads.emplace_back([&] {
            for (std::size_t k = next++; k < workloads.size();
                 k = next++) {
                out[k] = std::make_shared<const trace::Trace>(
                    workloads[k].build());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return out;
}

std::vector<core::Config>
presetConfigs(const std::vector<std::string> &keys)
{
    std::vector<core::Config> out;
    for (const auto &k : keys)
        out.push_back(core::presets().get(k));
    return out;
}

std::vector<core::Config>
standardLattice()
{
    std::vector<core::Config> out;
    for (const std::uint64_t kb : {1, 2, 4, 8, 16, 32, 64}) {
        for (const std::uint32_t ways : {1u, 2u, 4u, 8u}) {
            for (const std::uint32_t line : {16u, 32u, 64u}) {
                core::Config cfg = core::scaledConfig(
                    core::presets().get("standard"), kb * 1024, line);
                cfg.assoc = ways;
                cfg.name = std::to_string(kb) + "k/" +
                           std::to_string(ways) + "w/" +
                           std::to_string(line) + "B";
                cfg.validate();
                out.push_back(std::move(cfg));
            }
        }
    }
    return out;
}

sim::SamplingOptions
samplingGeometry()
{
    sim::SamplingOptions opt;
    opt.window = 512;
    opt.stride = 4096;
    opt.warmup = 2048;
    return opt;
}

const std::vector<std::string> &
sampledPresets()
{
    static const std::vector<std::string> keys{"standard", "soft",
                                               "soft-prefetch"};
    return keys;
}

void
buildLibraries(const std::vector<const trace::Trace *> &traces,
               const std::string &dir, unsigned jobs)
{
    // The same warming pass, key and path as Runner's cold
    // sampled-livepoint cell, on the caller's traces.
    const sim::SamplingOptions geometry = samplingGeometry();
    const sim::SampledEngine engine(geometry);
    const std::vector<core::Config> configs = presetConfigs(sampledPresets());
    std::vector<std::uint64_t> hashes;
    for (const trace::Trace *t : traces)
        hashes.push_back(sim::hashTrace(*t));
    const std::size_t cells = traces.size() * configs.size();
    std::atomic<std::size_t> next{0};
    const auto build = [&] {
        for (std::size_t i = next++; i < cells; i = next++) {
            const trace::Trace &t = *traces[i / configs.size()];
            const core::Config &cfg = configs[i % configs.size()];
            sim::CheckpointKey key;
            key.traceHash = hashes[i / configs.size()];
            key.configKey = cfg.cacheKey();
            key.window = geometry.window;
            key.stride = geometry.stride;
            key.warmup = geometry.warmup;
            sim::CheckpointLibrary lib;
            core::SoftwareAssistedCache warmer(cfg);
            trace::MemoryTraceSource src(t);
            engine.buildLibrary(src, warmer, lib);
            lib.save(sim::CheckpointLibrary::pathFor(dir, t.name(), key),
                     key);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned k = 1; k < jobs; ++k)
        threads.emplace_back(build);
    build();
    for (auto &t : threads)
        t.join();
}

void
buildLibraries(const std::vector<SharedTrace> &traces,
               const std::string &dir, unsigned jobs)
{
    std::vector<const trace::Trace *> raw;
    for (const SharedTrace &t : traces)
        raw.push_back(t.get());
    buildLibraries(raw, dir, jobs);
}

// --- Spans ----------------------------------------------------------------

namespace {

std::int64_t
toNs(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                origin)
        .count();
}

} // namespace

int
Spans::begin(const std::string &name, int parent, std::uint64_t request)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.startNs = toNs(origin_, now);
    s.endNs = s.startNs;
    s.parent = parent;
    s.request = request;
    s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

double
Spans::end(int id)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = toNs(origin_, now);
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

int
Spans::add(const std::string &name, Clock::time_point start,
           Clock::time_point end, int parent, std::uint64_t request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.startNs = toNs(origin_, start);
    s.endNs = toNs(origin_, end);
    s.parent = parent;
    s.request = request;
    s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

std::vector<Spans::Span>
Spans::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

double
Spans::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t ns = 0;
    for (const Span &s : spans_) {
        if (s.name == name)
            ns += s.endNs - s.startNs;
    }
    return static_cast<double>(ns) * 1e-9;
}

double
Spans::selfSeconds(int id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Span &p = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const Span &s : spans_) {
        if (s.parent != id)
            continue;
        const std::int64_t a = std::max(s.startNs, p.startNs);
        const std::int64_t b = std::min(s.endNs, p.endNs);
        if (b > a)
            covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = p.startNs;
    for (const auto &[a, b] : covered) {
        const std::int64_t from = std::max(a, reach);
        if (b > from)
            union_ns += b - from;
        reach = std::max(reach, b);
    }
    return static_cast<double>(p.endNs - p.startNs - union_ns) * 1e-9;
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> spans = snapshot();
    std::map<std::uint64_t, std::uint64_t> tids;
    util::Json events = util::Json::array();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const auto tid = tids.emplace(s.thread, tids.size() + 1).first;
        util::Json e = util::Json::object();
        e.set("name", s.name);
        e.set("cat", s.name.substr(0, s.name.find('.')));
        e.set("ph", "X");
        e.set("ts", static_cast<double>(s.startNs) * 1e-3);
        e.set("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        e.set("pid", 1);
        e.set("tid", tid->second);
        util::Json args = util::Json::object();
        args.set("id", static_cast<std::uint64_t>(i));
        args.set("parent", static_cast<std::int64_t>(s.parent));
        args.set("request", s.request);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    util::Json doc = util::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << doc.dump(0) << '\n';
    return static_cast<bool>(out);
}

} // namespace sacbench
