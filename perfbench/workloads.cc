/**
 * @file
 * The three untraced workloads: cold-reproduce, warm-resweep and
 * sacd-mixed, plus the sacd request generator and client.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.hh"
#include "src/core/config.hh"
#include "src/service/protocol.hh"
#include "src/service/server.hh"
#include "src/telemetry/manifest.hh"

namespace sacbench {

using namespace sac;
namespace fs = std::filesystem;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int setupRepeats = 3;

/** Raw measurements of one untraced run. */
struct Samples
{
    std::vector<double> setup;        //!< s, one per repetition
    std::vector<double> passes;       //!< s, one per timed pass
    std::vector<double> requests;     //!< s, submit to done
    std::vector<double> firstResults; //!< s, submit to first result
    /** End of each pass in requests / firstResults. */
    std::vector<std::pair<std::size_t, std::size_t>> passEnds;
    double timed = 0.0;               //!< s, whole timed loop
    double recordsConfigs = 0.0;      //!< trace records x configs
    std::uint64_t completed = 0;      //!< requests completed

    /** Close the current pass, which took @p wall seconds. */
    void
    endPass(double wall)
    {
        passes.push_back(wall);
        timed += wall;
        passEnds.emplace_back(requests.size(), firstResults.size());
    }

    /**
     * Median over passes of @p stat applied to each pass's samples of
     * @p all (member pointer to requests or firstResults), so a pass
     * slowed by the host moves it less than pooling would.
     */
    template <typename Stat>
    double
    perPass(const std::vector<double> Samples::*all, Stat stat) const
    {
        std::vector<double> values;
        std::size_t from = 0;
        for (const auto &[req_end, first_end] : passEnds) {
            const std::size_t to =
                all == &Samples::requests ? req_end : first_end;
            values.push_back(stat(std::vector<double>(
                (this->*all).begin() + from, (this->*all).begin() + to)));
            from = to;
        }
        return median(values);
    }
};

/**
 * Report the run's end-to-end metrics. @p peak_mb is VmHWM read when
 * the timed loop ended, before the closing oracle could raise it.
 */
void
finish(const Samples &s, double peak_mb, Report &report)
{
    // Every pass of a workload has the same number of requests.
    const std::size_t per_pass = s.passEnds.front().first;
    const double tail = tailPercentile(per_pass);
    const auto p50 = [](const std::vector<double> &v) { return median(v); };
    report.add("setup_s", median(s.setup), "s");
    report.add("wall_s", median(s.passes), "s");
    report.add("records_per_s", s.recordsConfigs / s.timed, "1/s");
    report.add("req_p50_ms", 1e3 * s.perPass(&Samples::requests, p50),
               "ms");
    report.add("req_tail_ms",
               1e3 * s.perPass(&Samples::requests,
                               [tail](const std::vector<double> &v) {
                                   return percentile(v, tail);
                               }),
               "ms");
    report.add("first_manifest_p50_ms",
               1e3 * s.perPass(&Samples::firstResults, p50), "ms");
    report.add("req_per_s", static_cast<double>(s.completed) / s.timed,
               "1/s");
    report.add("peak_rss_mb", peak_mb, "MiB");
    std::ostringstream os;
    os << "request latency ms:";
    for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9,
                           100.0})
        os << " p" << p << " " << 1e3 * percentile(s.requests, p);
    report.note(os.str());
    os.str("");
    os << "pass s:";
    for (const double p : s.passes)
        os << " " << p;
    report.note(os.str());
    os.str("");
    os << "samples: setup " << s.setup.size() << ", passes "
       << s.passes.size() << ", requests " << s.requests.size()
       << ", first results " << s.firstResults.size()
       << "; req_tail_ms is p" << tail << " of each pass's " << per_pass
       << " requests, and every req_* metric a median over passes";
    report.note(os.str());
}

/** Records x configurations of the distinct cells of @p reqs. */
double
recordsConfigs(harness::Runner &runner,
               const std::vector<NamedRequest> &reqs)
{
    std::set<std::pair<std::string, std::string>> seen;
    double total = 0.0;
    for (const NamedRequest &nr : reqs) {
        for (const auto &w : nr.request.workloads) {
            const double records =
                static_cast<double>(runner.traceOf(w).size());
            for (const auto &cfg : nr.request.configs) {
                if (seen.emplace(w.name, cfg.cacheKey()).second)
                    total += records;
            }
        }
    }
    return total;
}

/**
 * Time the requests of one pass on a fresh runner: per-request
 * latency, time to the first completed table and pass wall time.
 */
std::vector<harness::SweepResult>
timePass(harness::Runner &runner, const std::vector<NamedRequest> &reqs,
         Samples &s, Report &report)
{
    std::vector<harness::SweepResult> results;
    const auto pass0 = Clock::now();
    for (const NamedRequest &nr : reqs) {
        const auto r0 = Clock::now();
        results.push_back(runner.run(nr.request));
        s.requests.push_back(since(r0));
        if (results.size() == 1)
            s.firstResults.push_back(since(pass0));
        ++report.attempted;
    }
    s.endPass(since(pass0));
    s.completed += reqs.size();
    return results;
}

// --- cold-reproduce -------------------------------------------------------

bool
runCold(const Options &opt, Golden &golden, Report &report)
{
    Samples s;
    for (int k = 0; k < setupRepeats; ++k) {
        // Set-up: build the request lists and run one small request,
        // so allocator arenas, the preset registry and code pages are
        // warm before the first timed pass.
        const auto t0 = Clock::now();
        const auto reqs = coldRequests(opt.small, opt.jobs);
        auto probe = paperWorkloads(opt.small);
        probe.erase(probe.begin(), probe.end() - 2);
        harness::Runner runner;
        runner.run(makeRequest(probe, presetConfigs({"standard", "soft"}),
                               harness::amatMetric(), opt.jobs));
        s.setup.push_back(since(t0));
    }

    std::uint64_t rng = opt.seed;
    const auto loop0 = Clock::now();
    while (s.passes.empty() || since(loop0) < opt.seconds) {
        auto reqs = coldRequests(opt.small, opt.jobs);
        // Columns only: the row order sets which trace generation
        // lands on the critical path, and the pass time should not
        // depend on the seed.
        for (auto &nr : reqs)
            shuffle(nr.request.configs, rng);
        harness::Runner runner;
        const auto results = timePass(runner, reqs, s, report);

        // Oracle, outside the timed pass.
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            checkTable(results[i].table, reqs[i].request,
                       tableKey("cold-reproduce", reqs[i].name,
                                opt.small),
                       golden, report);
            report.attempted +=
                checkCells(runner, reqs[i].request, golden, report);
        }
        s.recordsConfigs += recordsConfigs(runner, reqs);
    }
    finish(s, peakRssMb(), report);
    return true;
}

// --- warm-resweep ---------------------------------------------------------

bool
runWarm(const Options &opt, Golden &golden, Report &report)
{
    Samples s;
    std::vector<SharedTrace> traces;
    std::string library;
    for (int k = 0; k < setupRepeats; ++k) {
        // Set-up: generate the paper traces and build their live-point
        // libraries, from nothing, each repetition.
        const std::string dir =
            opt.outDir + "/warm-lib-" + std::to_string(k);
        fs::remove_all(dir);
        traces.clear();
        const auto t0 = Clock::now();
        traces = generateTraces(paperWorkloads(opt.small), opt.jobs);
        buildLibraries(traces, dir, opt.jobs);
        s.setup.push_back(since(t0));
        if (!library.empty())
            fs::remove_all(library);
        library = dir;
    }
    double records = 0.0;
    for (const auto &t : traces)
        records += static_cast<double>(t->size());

    std::uint64_t rng = opt.seed;
    const auto loop0 = Clock::now();
    while (s.passes.empty() || since(loop0) < opt.seconds) {
        const auto reqs =
            warmRequests(copyingWorkloads(traces), library, opt.jobs, &rng);
        const harness::SweepRequest &sr = reqs[2].request;
        harness::Runner runner;
        const auto results = timePass(runner, reqs, s, report);

        for (std::size_t i = 0; i < reqs.size(); ++i) {
            checkTable(results[i].table, reqs[i].request,
                       tableKey("warm-resweep", reqs[i].name, opt.small),
                       golden, report);
            const harness::EngineTag want =
                i < 2 ? harness::EngineTag::StackSinglePass
                      : harness::EngineTag::SampledLivepoint;
            for (const auto &cell : results[i].cells) {
                if (cell.engine != want)
                    report.fail("warm-resweep cell " + cell.workload +
                                "/" + cell.configName +
                                " left its engine");
            }
        }
        report.attempted +=
            checkCells(runner, reqs[0].request, golden, report);
        report.attempted += checkCells(
            runner, sr, golden, report, [&](const util::Json &m) {
                const util::Json *metrics = m.find("metrics");
                const util::Json *sampling =
                    metrics ? metrics->find("sampling") : nullptr;
                const util::Json *exact =
                    sampling ? sampling->find("exact") : nullptr;
                if (!exact || exact->asBool(true))
                    report.fail("sampled cell fell back to exact replay");
            });
        ++report.attempted;
        if (runner.checkpointCounter("checkpoint.misses") != 0 ||
            runner.checkpointCounter("checkpoint.stale") != 0 ||
            runner.checkpointCounter("checkpoint.hits") !=
                results[2].cells.size())
            report.fail("warm-resweep pass missed its live-point "
                        "libraries");
        s.recordsConfigs +=
            records * static_cast<double>(reqs[0].request.configs.size() +
                                          sr.configs.size());
    }
    const double peak = peakRssMb();
    fs::remove_all(library);
    finish(s, peak, report);
    return true;
}

// --- sacd-mixed -----------------------------------------------------------

/** A started in-process sacd with warm traces and built libraries. */
struct Daemon
{
    std::unique_ptr<service::SweepServer> server;
    std::string socket;
    std::string library;
};

Daemon
startDaemon(const Options &opt, int k)
{
    Daemon d;
    d.socket = opt.outDir + "/sacd-" + std::to_string(k) + ".sock";
    d.library = opt.outDir + "/sacd-lib";
    fs::remove_all(d.library);
    service::ServerOptions so;
    so.socketPath = d.socket;
    so.workers = 2;
    so.maxQueue = 8;
    d.server = std::make_unique<service::SweepServer>(so);
    if (!d.server->start())
        return Daemon{};
    const auto paper = paperWorkloads(opt.small);
    d.server->runner().warmup(paper);
    std::vector<const trace::Trace *> traces;
    for (const auto &w : paper)
        traces.push_back(&d.server->runner().traceOf(w));
    buildLibraries(traces, d.library, opt.jobs);
    return d;
}

void
stopDaemon(Daemon &d)
{
    if (d.server)
        d.server->drain();
    d.server.reset();
}

/**
 * Each sacd pass is one daemon session: set-up (start, warm traces,
 * build libraries), then this many requests from the closed loop.
 * Every pass therefore serves its cells cold first, then warm, and
 * the handler threads the server keeps per connection stay bounded.
 */
std::size_t
sacdPassRequests(bool small)
{
    return small ? 100 : 400;
}

bool
runSacd(const Options &opt, Golden &golden, Report &report)
{
    Samples s;
    std::map<std::string, double> records;
    std::mutex mutex; // guards report and the maps below in the loop
    std::map<std::string, std::string> tables; // payload -> table
    // (manifest file, engine) -> the first document streamed for it
    std::map<std::pair<std::string, std::string>, std::string> documents;
    std::string library;
    const std::size_t per_pass = sacdPassRequests(opt.small);
    for (int k = 0; k < setupRepeats || s.timed < opt.seconds; ++k) {
        const auto t0 = Clock::now();
        Daemon daemon = startDaemon(opt, k);
        if (!daemon.server) {
            report.fail("sacd did not start");
            return false;
        }
        s.setup.push_back(since(t0));
        library = daemon.library;
        if (records.empty()) {
            for (const auto &w : paperWorkloads(opt.small))
                records[w.name] = static_cast<double>(
                    daemon.server->runner().traceOf(w).size());
        }

        const std::size_t first = k * per_pass;
        std::atomic<std::size_t> next{0};
        const auto client = [&] {
            for (std::size_t i = next++; i < per_pass; i = next++) {
                const SacdRequest req = sacdRequest(
                    opt.seed, first + i, opt.small, daemon.library);
                const SacdReply reply = sacdSubmit(
                    daemon.socket, req,
                    [&](const std::string &file, const std::string &engine,
                        const std::string &frame) {
                        std::lock_guard<std::mutex> lock(mutex);
                        if (documents.count({file, engine}))
                            return;
                        const auto doc = util::Json::parse(frame);
                        const util::Json *d =
                            doc ? doc->find("document") : nullptr;
                        documents.emplace(std::make_pair(file, engine),
                                          d ? d->asString() : "");
                    });
                std::lock_guard<std::mutex> lock(mutex);
                ++report.attempted;
                if (!reply.ok) {
                    report.fail("sacd " + req.kind + " request: " +
                                reply.error);
                    continue;
                }
                ++s.completed;
                s.requests.push_back(seconds(reply.submit, reply.done));
                s.firstResults.push_back(
                    seconds(reply.submit, reply.firstManifest));
                for (const auto &w : req.workloads)
                    s.recordsConfigs +=
                        records[w] * static_cast<double>(req.cells) /
                        static_cast<double>(req.workloads.size());
                const auto [it, fresh] =
                    tables.emplace(req.payload, reply.table);
                if (!fresh && it->second != reply.table)
                    report.fail("sacd tables differ between repeats");
            }
        };
        const auto pass0 = Clock::now();
        std::vector<std::thread> clients;
        for (unsigned i = 0; i < opt.jobs; ++i)
            clients.emplace_back(client);
        for (auto &t : clients)
            t.join();
        s.endPass(since(pass0));

        ++report.attempted;
        const harness::Runner &runner = daemon.server->runner();
        if (runner.checkpointCounter("checkpoint.misses") != 0 ||
            runner.checkpointCounter("checkpoint.stale") != 0)
            report.fail("sacd sampled cells missed their libraries");
        stopDaemon(daemon);
    }
    const double peak = peakRssMb();

    // Oracle: every streamed table equals Runner::run on the same
    // request; every cell's manifest matches its golden digest. The
    // reference runner computes every cell the stream can ask for in
    // parallel first, then answers each request from its store.
    harness::Runner reference;
    const auto paper = paperWorkloads(opt.small);
    reference.run(makeRequest(paper, presetConfigs(core::presets().names()),
                              harness::amatMetric(), opt.jobs));
    for (auto &nr : warmRequests(paper, library, opt.jobs, nullptr)) {
        if (nr.request.engine != harness::EngineSelect::Auto)
            reference.run(nr.request);
    }
    for (const auto &[payload, table] : tables) {
        std::string error;
        const auto parsed = service::parseRequest(payload, &error);
        auto req = parsed ? service::toSweepRequest(parsed->spec, &error)
                          : std::nullopt;
        ++report.attempted;
        if (!req) {
            report.fail("sacd request does not resolve: " + error);
            continue;
        }
        if (reference.run(*req).table.toString() != table)
            report.fail("sacd table differs from Runner::run for " +
                        payload);
    }
    for (const auto &[cell, doc] : documents) {
        ++report.attempted;
        const auto parsed = util::Json::parse(doc);
        std::string key;
        std::string digest;
        if (!parsed || !manifestDigest(*parsed, &key, &digest)) {
            report.fail("unparsable sacd manifest " + cell.first);
            continue;
        }
        golden.check(key, digest, report);
    }
    fs::remove_all(library);
    finish(s, peak, report);
    return true;
}

/**
 * The "engine" member of the manifest document that a manifest frame
 * carries as an escaped string; empty when it has none.
 */
std::string
frameEngine(const std::string &frame)
{
    static const std::string member = "\\\"engine\\\":";
    std::size_t at = frame.find(member);
    if (at == std::string::npos)
        return "";
    at = frame.find("\\\"", at + member.size());
    if (at == std::string::npos)
        return "";
    at += 2;
    return frame.substr(at, frame.find('\\', at) - at);
}

/** Pick @p k distinct elements of @p from in seeded order. */
std::vector<std::string>
pick(std::vector<std::string> from, std::size_t k, std::uint64_t &rng)
{
    shuffle(from, rng);
    from.resize(std::min(k, from.size()));
    return from;
}

} // namespace

harness::SweepRequest
makeRequest(std::vector<harness::Workload> workloads,
            std::vector<core::Config> configs, harness::Metric metric,
            unsigned jobs)
{
    harness::SweepRequest req;
    req.workloads = std::move(workloads);
    req.configs = std::move(configs);
    req.metric = std::move(metric);
    req.jobs = jobs;
    return req;
}

std::string
tableKey(const std::string &workload, const std::string &request,
         bool small)
{
    return "table|" + workload + "." + request + (small ? ".small" : "");
}

std::vector<NamedRequest>
coldRequests(bool small, unsigned jobs)
{
    const auto paper = paperWorkloads(small);
    std::vector<harness::Workload> blocked;
    std::vector<harness::Workload> copied;
    for (auto &w : kernelWorkloads(small))
        (w.name.rfind("BlockedMV", 0) == 0 ? blocked : copied)
            .push_back(std::move(w));
    const std::vector<std::pair<std::string,
                                std::pair<std::vector<harness::Workload>,
                                          std::vector<std::string>>>>
        figures{
            {"fig03",
             {paper, {"standard", "victim", "bypass", "bypass-buffer"}}},
            {"fig06",
             {paper,
              {"standard", "soft-temporal", "soft-spatial", "soft"}}},
            {"fig12",
             {paper, {"standard", "standard-prefetch", "soft-prefetch"}}},
            {"fig11a", {blocked, {"standard", "soft"}}},
            {"fig11b", {copied, {"standard", "soft"}}},
        };
    std::vector<NamedRequest> out;
    for (const auto &[name, spec] : figures) {
        if (spec.first.empty())
            continue;
        out.push_back({name, makeRequest(spec.first,
                                         presetConfigs(spec.second),
                                         harness::amatMetric(), jobs)});
    }
    return out;
}


std::vector<NamedRequest>
warmRequests(std::vector<harness::Workload> workloads,
             const std::string &library, unsigned jobs,
             std::uint64_t *rng)
{
    auto lattice = standardLattice();
    auto sampled = presetConfigs(sampledPresets());
    if (rng) {
        shuffle(workloads, *rng);
        shuffle(lattice, *rng);
        shuffle(sampled, *rng);
    }
    std::vector<NamedRequest> reqs{
        {"missratio", makeRequest(workloads, lattice,
                                  harness::missRatioMetric(), jobs)},
        {"words", makeRequest(workloads, lattice,
                              harness::wordsPerAccessMetric(), jobs)},
        {"sampled",
         makeRequest(workloads, sampled, harness::amatMetric(), jobs)},
    };
    harness::SweepRequest &sr = reqs[2].request;
    sr.engine = harness::EngineSelect::SampledLivepoint;
    sr.sampling = samplingGeometry();
    sr.checkpointDir = library;
    return reqs;
}

SacdRequest
sacdRequest(std::uint64_t seed, std::size_t index, bool small,
            const std::string &library_dir)
{
    std::vector<std::string> paper;
    for (const auto &w : paperWorkloads(small))
        paper.push_back(w.name);
    const std::vector<std::string> presets = core::presets().names();
    const std::vector<std::vector<std::string>> figures{
        {"standard", "victim", "bypass", "bypass-buffer"},
        {"standard", "soft-temporal", "soft-spatial", "soft"},
        {"2way", "2way-victim", "soft-2way", "simplified-soft-2way"},
        {"standard", "standard-prefetch", "soft-prefetch", "soft"},
    };
    // The mix is exact in every block of ten requests, so seeds differ
    // only in the order and in each request's workloads and presets.
    std::uint64_t rng = seed ^ (index / 10) * 0x9e3779b97f4a7c15ull;
    std::vector<int> block{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    shuffle(block, rng);
    const int u = block[index % 10];
    rng ^= index * 0xbf58476d1ce4e5b9ull;
    {
        SacdRequest r;
        std::vector<std::string> keys;
        util::Json doc = util::Json::object();
        doc.set("verb", "submit");
        std::string metric = "amat";
        r.engine = harness::engineName(harness::EngineTag::ExactReplay);
        if (u < 5) {
            r.kind = "point";
            r.workloads = pick(paper, 1 + nextRandom(rng) % 2, rng);
            keys = pick(presets, 1 + nextRandom(rng) % 3, rng);
        } else if (u < 7) {
            r.kind = "suite";
            r.workloads = pick(paper, paper.size(), rng);
            keys = pick(figures[nextRandom(rng) % figures.size()], 4, rng);
        } else if (u < 9) {
            // The wire names presets only; its stack family is the two
            // stack-eligible presets.
            r.kind = "stack";
            r.workloads = pick(paper, 1 + nextRandom(rng) % 3, rng);
            keys = pick({"standard", "2way"}, 2, rng);
            metric = nextRandom(rng) % 2 ? "miss-ratio" : "words";
            r.engine =
                harness::engineName(harness::EngineTag::StackSinglePass);
        } else {
            r.kind = "sampled";
            r.engine =
                harness::engineName(harness::EngineTag::SampledLivepoint);
            r.workloads = pick(paper, 1 + nextRandom(rng) % 2, rng);
            keys = pick(sampledPresets(), 1 + nextRandom(rng) % 3, rng);
            const auto geometry = samplingGeometry();
            util::Json sampling = util::Json::object();
            sampling.set("window", geometry.window);
            sampling.set("stride", geometry.stride);
            sampling.set("warmup", geometry.warmup);
            doc.set("engine", "sampled-livepoint");
            doc.set("sampling", std::move(sampling));
            doc.set("checkpoint_dir", library_dir);
        }
        util::Json ws = util::Json::array();
        for (const auto &w : r.workloads)
            ws.push(w);
        util::Json ps = util::Json::array();
        for (const auto &k : keys)
            ps.push(k);
        doc.set("workloads", std::move(ws));
        doc.set("presets", std::move(ps));
        doc.set("metric", metric);
        doc.set("jobs", 1);
        r.payload = doc.dump(0);
        r.cells = r.workloads.size() * keys.size();
        for (const auto &w : r.workloads) {
            for (const auto &k : keys)
                r.files.push_back(telemetry::manifestFileName(
                    w, core::presets().get(k).cacheKey()));
        }
        std::sort(r.files.begin(), r.files.end());
        return r;
    }
}

SacdReply
sacdSubmit(const std::string &socket, const SacdRequest &request,
           const std::function<void(const std::string &, const std::string &,
                                    const std::string &)> &on_manifest)
{
    SacdReply reply;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        reply.error = "socket() failed";
        return reply;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(), sizeof addr.sun_path - 1);
    reply.submit = Clock::now();
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
            0 ||
        !service::writeFrame(fd, request.payload)) {
        ::close(fd);
        reply.error = "cannot submit to " + socket;
        return reply;
    }
    // Manifest frames are the bulk of a reply: read their type and
    // file name from the fixed prefix the server writes, and leave the
    // document to on_manifest.
    static const std::string manifestPrefix =
        "{\"type\":\"manifest\",\"file\":\"";
    std::string frame;
    while (service::readFrame(fd, frame)) {
        ++reply.frames;
        reply.bytes += frame.size() + 4;
        if (reply.frames > 1 && frame.rfind(manifestPrefix, 0) == 0) {
            if (reply.manifests++ == 0)
                reply.firstManifest = Clock::now();
            const std::size_t from = manifestPrefix.size();
            const std::string file =
                frame.substr(from, frame.find('"', from) - from);
            if (!std::binary_search(request.files.begin(),
                                    request.files.end(), file)) {
                reply.error = "manifest " + file + " is not a cell of "
                              "the request";
                break;
            }
            const std::string engine = frameEngine(frame);
            if (engine != request.engine) {
                reply.error = "manifest " + file + " names engine '" +
                              engine + "', not " + request.engine;
                break;
            }
            if (on_manifest)
                on_manifest(file, engine, frame);
            continue;
        }
        const auto doc = util::Json::parse(frame);
        const util::Json *type = doc ? doc->find("type") : nullptr;
        const std::string kind = type ? type->asString() : "";
        if (reply.frames == 1) {
            if (kind == "accepted") {
                reply.accepted = Clock::now();
                continue;
            }
            const util::Json *err = doc ? doc->find("error") : nullptr;
            reply.error = err ? err->asString() : "no accepted frame";
            reply.rejected = reply.error == "queue full";
            break;
        }
        if (kind == "done") {
            reply.done = Clock::now();
            const util::Json *cells = doc->find("cells");
            const util::Json *table = doc->find("table");
            reply.table = table ? table->asString() : "";
            if (!cells || cells->asUint() != request.cells ||
                reply.manifests != request.cells)
                reply.error = "done after " +
                              std::to_string(reply.manifests) +
                              " manifests for " +
                              std::to_string(request.cells) + " cells";
            else
                reply.ok = true;
            break;
        }
        reply.error = "unexpected frame type '" + kind + "'";
        break;
    }
    if (!reply.ok && reply.error.empty())
        reply.error = "connection closed before done";
    ::close(fd);
    return reply;
}

bool
runWorkload(const Options &opt, Golden &golden, Report &report)
{
    if (opt.workload == "cold-reproduce")
        return runCold(opt, golden, report);
    if (opt.workload == "warm-resweep")
        return runWarm(opt, golden, report);
    if (opt.workload == "sacd-mixed")
        return runSacd(opt, golden, report);
    return false;
}

} // namespace sacbench
