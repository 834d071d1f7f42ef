#include "src/service/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <limits>
#include <unistd.h>

#include "src/workloads/workloads.hh"

namespace sac {
namespace service {

namespace {

bool
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::read(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-message
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > maxFrameBytes)
        return false;
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size());
    const unsigned char header[4] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len),
    };
    return writeAll(fd, reinterpret_cast<const char *>(header), 4) &&
           writeAll(fd, payload.data(), payload.size());
}

bool
readFrame(int fd, std::string &payload)
{
    unsigned char header[4];
    if (!readAll(fd, reinterpret_cast<char *>(header), 4))
        return false;
    const std::uint32_t len =
        (static_cast<std::uint32_t>(header[0]) << 24) |
        (static_cast<std::uint32_t>(header[1]) << 16) |
        (static_cast<std::uint32_t>(header[2]) << 8) |
        static_cast<std::uint32_t>(header[3]);
    if (len > maxFrameBytes)
        return false;
    payload.resize(len);
    return len == 0 || readAll(fd, payload.data(), len);
}

std::optional<harness::Metric>
metricFromName(const std::string &name)
{
    if (name == "miss-ratio")
        return harness::missRatioMetric();
    if (name == "amat")
        return harness::amatMetric();
    if (name == "words")
        return harness::wordsPerAccessMetric();
    if (name == "main-hit-share")
        return harness::mainHitShareMetric();
    if (name == "aux-hit-share")
        return harness::auxHitShareMetric();
    return std::nullopt;
}

namespace {

/** Set @p error and return nullopt (terse parse-failure helper). */
std::optional<Request>
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return std::nullopt;
}

std::optional<std::vector<std::string>>
stringList(const util::Json &doc, const std::string &key,
           std::string *error)
{
    const util::Json *list = doc.find(key);
    if (list == nullptr || !list->isArray() || list->size() == 0) {
        if (error != nullptr)
            *error = "submit needs a non-empty \"" + key + "\" array";
        return std::nullopt;
    }
    std::vector<std::string> out;
    out.reserve(list->size());
    for (const util::Json &e : list->elements()) {
        if (!e.isString()) {
            if (error != nullptr)
                *error = "\"" + key + "\" entries must be strings";
            return std::nullopt;
        }
        out.push_back(e.asString());
    }
    return out;
}

} // namespace

std::optional<Request>
parseRequest(const std::string &payload, std::string *error)
{
    std::string parse_error;
    const auto doc = util::Json::parse(payload, &parse_error);
    if (!doc)
        return fail(error, "malformed request: " + parse_error);
    if (!doc->isObject())
        return fail(error, "request must be a JSON object");
    const util::Json *verb = doc->find("verb");
    if (verb == nullptr || !verb->isString())
        return fail(error, "request needs a string \"verb\"");

    Request req;
    const std::string v = verb->asString();
    if (v == "status") {
        req.verb = Verb::Status;
        return req;
    }
    if (v == "metrics") {
        req.verb = Verb::Metrics;
        return req;
    }
    if (v == "shutdown") {
        req.verb = Verb::Shutdown;
        return req;
    }
    if (v != "submit")
        return fail(error, "unknown verb \"" + v + "\"");

    req.verb = Verb::Submit;
    const auto workloads = stringList(*doc, "workloads", error);
    if (!workloads)
        return std::nullopt;
    req.spec.workloads = *workloads;
    const auto presets = stringList(*doc, "presets", error);
    if (!presets)
        return std::nullopt;
    req.spec.presets = *presets;

    if (const util::Json *m = doc->find("metric")) {
        if (!m->isString())
            return fail(error, "\"metric\" must be a string");
        req.spec.metric = m->asString();
    }
    if (const util::Json *e = doc->find("engine")) {
        if (!e->isString())
            return fail(error, "\"engine\" must be a string");
        const auto engine =
            harness::engineSelectFromName(e->asString());
        if (!engine)
            return fail(error,
                        "unknown engine \"" + e->asString() + "\"");
        req.spec.engine = *engine;
    }
    if (const util::Json *p = doc->find("priority")) {
        if (!p->isNumber())
            return fail(error, "\"priority\" must be a number");
        req.spec.priority = static_cast<int>(std::clamp<std::int64_t>(
            p->asInt(), std::numeric_limits<int>::min(),
            std::numeric_limits<int>::max()));
    }
    if (const util::Json *j = doc->find("jobs")) {
        if (!j->isNumber())
            return fail(error, "\"jobs\" must be a number");
        const std::uint64_t jobs = std::min<std::uint64_t>(
            j->asUint(1), std::numeric_limits<unsigned>::max());
        req.spec.jobs = jobs == 0 ? 1u : static_cast<unsigned>(jobs);
    }
    if (const util::Json *s = doc->find("sampling")) {
        if (!s->isObject())
            return fail(error, "\"sampling\" must be an object");
        if (const util::Json *w = s->find("window"))
            req.spec.sampling.window = w->asUint();
        if (const util::Json *st = s->find("stride"))
            req.spec.sampling.stride = st->asUint();
        if (const util::Json *wu = s->find("warmup"))
            req.spec.sampling.warmup = wu->asUint();
    }
    if (const util::Json *d = doc->find("checkpoint_dir")) {
        if (!d->isString())
            return fail(error, "\"checkpoint_dir\" must be a string");
        req.spec.checkpointDir = d->asString();
    }
    if (const util::Json *d = doc->find("manifest_dir")) {
        if (!d->isString())
            return fail(error, "\"manifest_dir\" must be a string");
        req.spec.manifestDir = d->asString();
    }
    return req;
}

std::optional<harness::SweepRequest>
toSweepRequest(const SweepSpec &spec, std::string *error)
{
    auto bail = [error](const std::string &message)
        -> std::optional<harness::SweepRequest> {
        if (error != nullptr)
            *error = message;
        return std::nullopt;
    };

    harness::SweepRequest req;
    const auto &known = workloads::paperBenchmarks();
    for (const auto &name : spec.workloads) {
        bool found = false;
        for (const auto &b : known)
            found = found || b.name == name;
        if (!found)
            return bail("unknown workload \"" + name + "\"");
        req.workloads.push_back(
            {name,
             [name] { return workloads::makeBenchmarkTrace(name); },
             [name](const trace::RecordSink &sink) {
                 workloads::streamBenchmarkTrace(name, sink);
             }});
    }
    for (const auto &key : spec.presets) {
        if (!core::presets().contains(key))
            return bail("unknown preset \"" + key + "\"");
        req.configs.push_back(core::presets().get(key));
    }
    const auto metric = metricFromName(spec.metric);
    if (!metric)
        return bail("unknown metric \"" + spec.metric + "\"");
    req.metric = *metric;
    req.engine = spec.engine;
    req.jobs = spec.jobs;
    req.sampling = spec.sampling;
    req.checkpointDir = spec.checkpointDir;
    req.telemetry.manifestDir = spec.manifestDir;
    if (const auto err = req.validationError())
        return bail("invalid sweep: " + *err);
    return req;
}

std::string
errorResponse(const std::string &message)
{
    util::Json doc = util::Json::object();
    doc.set("type", "error");
    doc.set("error", message);
    return doc.dump(0);
}

std::string
acceptedResponse(std::uint64_t id, std::size_t queued)
{
    util::Json doc = util::Json::object();
    doc.set("type", "accepted");
    doc.set("id", id);
    doc.set("queued", static_cast<std::uint64_t>(queued));
    return doc.dump(0);
}

std::string
manifestResponse(const std::string &file, const std::string &document)
{
    // The bytes of the compact dump() of {type, file, document},
    // concatenated so the document is quoted once, in place. A
    // pretty-printed document escapes about one byte in ten.
    std::string frame;
    frame.reserve(40 + file.size() + document.size() +
                  document.size() / 8);
    frame += "{\"type\":\"manifest\",\"file\":";
    util::Json::appendQuoted(frame, file);
    frame += ",\"document\":";
    util::Json::appendQuoted(frame, document);
    frame += '}';
    return frame;
}

std::string
doneResponse(std::uint64_t id, std::size_t cells,
             const std::string &table)
{
    util::Json doc = util::Json::object();
    doc.set("type", "done");
    doc.set("id", id);
    doc.set("cells", static_cast<std::uint64_t>(cells));
    doc.set("table", table);
    return doc.dump(0);
}

} // namespace service
} // namespace sac
