/**
 * @file
 * sacctl — command-line client of the sacd sweep service.
 *
 *   sacctl --socket=PATH submit --workloads=MV,SpMV \
 *          --presets=standard,soft [--metric=miss-ratio]
 *          [--engine=auto] [--priority=N] [--jobs=N]
 *          [--out=DIR]
 *          [--sample-window=W --sample-stride=S --sample-warmup=U]
 *          [--checkpoint-dir=DIR]
 *   sacctl --socket=PATH status
 *   sacctl --socket=PATH metrics
 *   sacctl --socket=PATH shutdown
 *
 * submit streams the sweep's manifests as they finish; with --out=DIR
 * each streamed document is written byte-identically under DIR, so
 * the client-side files match what --emit-json would have produced
 * locally (modulo the wall-clock "timing" object).
 */

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

#include "src/service/protocol.hh"

namespace {

using sac::service::readFrame;
using sac::service::writeFrame;
using sac::util::Json;

bool
flagValue(const std::string &arg, const std::string &name,
          std::string &out)
{
    const std::string prefix = name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

std::vector<std::string>
splitCommas(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        std::cerr << "sacctl: invalid socket path '" << path << "'\n";
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::cerr << "sacctl: socket: " << std::strerror(errno)
                  << "\n";
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        std::cerr << "sacctl: connect '" << path
                  << "': " << std::strerror(errno) << "\n";
        ::close(fd);
        return -1;
    }
    return fd;
}

/** One-frame verbs: send the request, print one response field. */
int
simpleVerb(const std::string &socket, const std::string &verb,
           const std::string &print_member)
{
    const int fd = connectTo(socket);
    if (fd < 0)
        return 1;
    Json req = Json::object();
    req.set("verb", verb);
    std::string payload;
    if (!writeFrame(fd, req.dump(0)) || !readFrame(fd, payload)) {
        std::cerr << "sacctl: connection lost\n";
        ::close(fd);
        return 1;
    }
    ::close(fd);
    const auto doc = Json::parse(payload);
    if (!doc) {
        std::cerr << "sacctl: malformed response\n";
        return 1;
    }
    if (const Json *err = doc->find("error")) {
        std::cerr << "sacctl: " << err->asString() << "\n";
        return 1;
    }
    if (print_member.empty()) {
        std::cout << doc->dump(2) << "\n";
    } else if (const Json *member = doc->find(print_member)) {
        std::cout << member->asString();
    }
    return 0;
}

int
submit(const std::string &socket, const Json &request,
       const std::string &out_dir)
{
    const int fd = connectTo(socket);
    if (fd < 0)
        return 1;
    if (!writeFrame(fd, request.dump(0))) {
        std::cerr << "sacctl: connection lost\n";
        ::close(fd);
        return 1;
    }
    std::size_t manifests = 0;
    std::string payload;
    while (readFrame(fd, payload)) {
        const auto doc = Json::parse(payload);
        if (!doc || !doc->isObject()) {
            std::cerr << "sacctl: malformed response frame\n";
            ::close(fd);
            return 1;
        }
        const Json *type = doc->find("type");
        const std::string t =
            type != nullptr ? type->asString() : "";
        if (t == "error") {
            std::cerr << "sacctl: "
                      << doc->find("error")->asString() << "\n";
            ::close(fd);
            return 1;
        }
        if (t == "accepted") {
            std::cerr << "sacctl: accepted as request #"
                      << doc->find("id")->asUint() << "\n";
        } else if (t == "manifest") {
            ++manifests;
            if (!out_dir.empty()) {
                std::filesystem::create_directories(out_dir);
                const std::string file =
                    doc->find("file")->asString();
                std::ofstream os(out_dir + "/" + file,
                                 std::ios::binary);
                os << doc->find("document")->asString();
                if (!os) {
                    std::cerr << "sacctl: failed to write " << file
                              << "\n";
                    ::close(fd);
                    return 1;
                }
            }
        } else if (t == "done") {
            std::cout << doc->find("table")->asString();
            std::cerr << "sacctl: " << doc->find("cells")->asUint()
                      << " cells, " << manifests
                      << " manifests streamed\n";
            ::close(fd);
            return 0;
        }
    }
    std::cerr << "sacctl: server closed before completing\n";
    ::close(fd);
    return 1;
}

void
usage()
{
    std::cerr
        << "usage: sacctl --socket=PATH "
           "(submit|status|metrics|shutdown) [flags]\n"
        << "submit flags:\n"
        << "  --workloads=A,B   benchmark names (required)\n"
        << "  --presets=a,b     configuration presets (required)\n"
        << "  --metric=NAME     miss-ratio|amat|words|"
           "main-hit-share|aux-hit-share\n"
        << "  --engine=NAME     auto|exact|sampled|"
           "sampled-livepoint|stack\n"
        << "  --priority=N      higher runs sooner (default 0)\n"
        << "  --jobs=N          per-sweep worker hint\n"
        << "  --out=DIR         write streamed manifests under DIR\n"
        << "  --sample-window=W --sample-stride=S --sample-warmup=U\n"
        << "  --checkpoint-dir=DIR  live-point library "
           "(sampled-livepoint)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket, verb, out_dir;
    Json request = Json::object();
    request.set("verb", "");
    Json sampling = Json::object();
    bool has_sampling = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (flagValue(arg, "--socket", value)) {
            socket = value;
        } else if (arg == "submit" || arg == "status" ||
                   arg == "metrics" || arg == "shutdown") {
            verb = arg;
            request.set("verb", arg);
        } else if (flagValue(arg, "--workloads", value)) {
            Json list = Json::array();
            for (const auto &w : splitCommas(value))
                list.push(w);
            request.set("workloads", list);
        } else if (flagValue(arg, "--presets", value)) {
            Json list = Json::array();
            for (const auto &p : splitCommas(value))
                list.push(p);
            request.set("presets", list);
        } else if (flagValue(arg, "--metric", value)) {
            request.set("metric", value);
        } else if (flagValue(arg, "--engine", value)) {
            request.set("engine", value);
        } else if (flagValue(arg, "--priority", value)) {
            request.set("priority",
                        static_cast<std::int64_t>(std::stol(value)));
        } else if (flagValue(arg, "--jobs", value)) {
            request.set("jobs",
                        static_cast<std::uint64_t>(
                            std::stoul(value)));
        } else if (flagValue(arg, "--out", value)) {
            out_dir = value;
        } else if (flagValue(arg, "--sample-window", value)) {
            sampling.set("window", static_cast<std::uint64_t>(
                                       std::stoull(value)));
            has_sampling = true;
        } else if (flagValue(arg, "--sample-stride", value)) {
            sampling.set("stride", static_cast<std::uint64_t>(
                                       std::stoull(value)));
            has_sampling = true;
        } else if (flagValue(arg, "--sample-warmup", value)) {
            sampling.set("warmup", static_cast<std::uint64_t>(
                                       std::stoull(value)));
            has_sampling = true;
        } else if (flagValue(arg, "--checkpoint-dir", value)) {
            request.set("checkpoint_dir", value);
        } else {
            usage();
            return 2;
        }
    }
    if (socket.empty() || verb.empty()) {
        usage();
        return 2;
    }
    if (has_sampling)
        request.set("sampling", sampling);

    if (verb == "status")
        return simpleVerb(socket, "status", "");
    if (verb == "metrics")
        return simpleVerb(socket, "metrics", "prometheus");
    if (verb == "shutdown")
        return simpleVerb(socket, "shutdown", "");
    return submit(socket, request, out_dir);
}
