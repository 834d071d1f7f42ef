/**
 * @file
 * Tests of the sweep service (src/service/): frame codec, request
 * parsing, and a live in-process SweepServer driven over real Unix
 * sockets — streamed manifests byte-equivalent to the CLI path,
 * concurrent clients sharing one trace generation / stack pass /
 * checkpoint build through the shared Runner, repeated requests served
 * latched manifest documents, admission control, and graceful drain. All multi-threaded paths run under the TSan CI leg.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/service/protocol.hh"
#include "src/service/server.hh"
#include "src/util/json.hh"
#include "src/workloads/workloads.hh"

namespace {

using namespace sac;
using service::parseRequest;
using service::readFrame;
using service::ServerOptions;
using service::SweepServer;
using service::Verb;
using service::writeFrame;
using util::Json;

std::string
uniqueSocketPath(const std::string &tag)
{
    return testing::TempDir() + "/sacd_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** All response frames of one request, parsed, until close. */
std::vector<Json>
roundTrip(const std::string &socket, const std::string &request)
{
    std::vector<Json> frames;
    const int fd = connectTo(socket);
    EXPECT_GE(fd, 0) << "connect " << socket;
    if (fd < 0)
        return frames;
    EXPECT_TRUE(writeFrame(fd, request));
    std::string payload;
    while (readFrame(fd, payload)) {
        auto doc = Json::parse(payload);
        EXPECT_TRUE(doc.has_value());
        if (doc)
            frames.push_back(std::move(*doc));
    }
    ::close(fd);
    return frames;
}

std::string
frameType(const Json &frame)
{
    const Json *type = frame.find("type");
    return type != nullptr ? type->asString() : "";
}

std::string
submitBody(const std::string &extra = "")
{
    return std::string("{\"verb\":\"submit\","
                       "\"workloads\":[\"MV\"],"
                       "\"presets\":[\"standard\",\"soft\"]") +
           extra + "}";
}

/** Drop the wall-clock "timing" member before comparing documents. */
std::string
stripTiming(const std::string &document)
{
    std::string err;
    auto parsed = Json::parse(document, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
    if (!parsed)
        return "";
    Json out = Json::object();
    for (const auto &member : parsed->members())
        if (member.first != "timing")
            out.set(member.first, member.second);
    return out.dump(2);
}

TEST(ServiceFraming, RoundTripsOverASocketPair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payloads[] = {"", "x",
                                    std::string(100000, 'q'),
                                    "{\"verb\":\"status\"}"};
    for (const auto &sent : payloads) {
        ASSERT_TRUE(writeFrame(fds[0], sent));
        std::string received;
        ASSERT_TRUE(readFrame(fds[1], received));
        EXPECT_EQ(received, sent);
    }
    ::close(fds[0]);
    // EOF after close, not a hang or a partial frame.
    std::string leftover;
    EXPECT_FALSE(readFrame(fds[1], leftover));
    ::close(fds[1]);
}

TEST(ServiceProtocol, ParsesEveryVerb)
{
    std::string error;
    EXPECT_EQ(parseRequest("{\"verb\":\"status\"}", &error)->verb,
              Verb::Status);
    EXPECT_EQ(parseRequest("{\"verb\":\"metrics\"}", &error)->verb,
              Verb::Metrics);
    EXPECT_EQ(parseRequest("{\"verb\":\"shutdown\"}", &error)->verb,
              Verb::Shutdown);

    const auto submit = parseRequest(
        submitBody(",\"metric\":\"amat\",\"engine\":\"exact\","
                   "\"priority\":3,\"jobs\":2,"
                   "\"sampling\":{\"window\":128,\"stride\":1024,"
                   "\"warmup\":256},"
                   "\"checkpoint_dir\":\"ckpt\","
                   "\"manifest_dir\":\"out\""),
        &error);
    ASSERT_TRUE(submit.has_value()) << error;
    EXPECT_EQ(submit->verb, Verb::Submit);
    EXPECT_EQ(submit->spec.workloads,
              std::vector<std::string>{"MV"});
    EXPECT_EQ(submit->spec.metric, "amat");
    EXPECT_EQ(submit->spec.engine, harness::EngineSelect::Exact);
    EXPECT_EQ(submit->spec.priority, 3);
    EXPECT_EQ(submit->spec.jobs, 2u);
    EXPECT_EQ(submit->spec.sampling.window, 128u);
    EXPECT_EQ(submit->spec.sampling.stride, 1024u);
    EXPECT_EQ(submit->spec.checkpointDir, "ckpt");
    EXPECT_EQ(submit->spec.manifestDir, "out");
}

TEST(ServiceProtocol, ManifestFrameMatchesTheJsonWriter)
{
    // The frame is concatenated by hand; its bytes must stay those of
    // the compact writer over {type, file, document}.
    std::string document = "{\n  \"a\": \"q\\\"b\\\\\",\n\t\r}\n";
    for (int b = 0; b < 256; ++b)
        document += static_cast<char>(b);
    for (const std::string &file : {std::string("MV_0123.json"),
                                    std::string("we\"ird\\\x01.json")}) {
        Json doc = Json::object();
        doc.set("type", "manifest");
        doc.set("file", file);
        doc.set("document", document);
        EXPECT_EQ(service::manifestResponse(file, document), doc.dump(0));
    }
}

TEST(ServiceProtocol, RejectsMalformedRequests)
{
    const char *bad[] = {
        "not json",
        "[1,2]",
        "{\"noverb\":1}",
        "{\"verb\":\"warp\"}",
        "{\"verb\":\"submit\"}",
        "{\"verb\":\"submit\",\"workloads\":[],"
        "\"presets\":[\"standard\"]}",
        "{\"verb\":\"submit\",\"workloads\":[1],"
        "\"presets\":[\"standard\"]}",
        "{\"verb\":\"submit\",\"workloads\":[\"MV\"],"
        "\"presets\":[\"standard\"],\"engine\":\"warp\"}",
    };
    for (const char *payload : bad) {
        std::string error;
        EXPECT_FALSE(parseRequest(payload, &error).has_value())
            << payload;
        EXPECT_FALSE(error.empty()) << payload;
    }
}

TEST(ServiceProtocol, OutOfRangeNumbersSaturate)
{
    // Wire numbers beyond the target type clamp instead of hitting an
    // undefined float-to-integer cast; unknown keys are ignored, so
    // clients that still send retired fields keep working.
    std::string error;
    const auto submit = parseRequest(
        submitBody(",\"priority\":-1e300,\"jobs\":1e300,"
                   "\"retired_field\":4"),
        &error);
    ASSERT_TRUE(submit.has_value()) << error;
    EXPECT_EQ(submit->spec.priority, std::numeric_limits<int>::min());
    EXPECT_EQ(submit->spec.jobs, std::numeric_limits<unsigned>::max());

    const auto high =
        parseRequest(submitBody(",\"priority\":1e300"), &error);
    ASSERT_TRUE(high.has_value()) << error;
    EXPECT_EQ(high->spec.priority, std::numeric_limits<int>::max());
}

TEST(ServiceProtocol, ResolvesSpecsAgainstTheRegistries)
{
    std::string error;
    auto spec = parseRequest(submitBody(), &error)->spec;
    auto request = service::toSweepRequest(spec, &error);
    ASSERT_TRUE(request.has_value()) << error;
    EXPECT_EQ(request->workloads.size(), 1u);
    EXPECT_EQ(request->configs.size(), 2u);
    EXPECT_EQ(request->metric.name, "miss ratio");

    auto unknown_workload = spec;
    unknown_workload.workloads = {"NOPE"};
    EXPECT_FALSE(
        service::toSweepRequest(unknown_workload, &error).has_value());
    EXPECT_NE(error.find("NOPE"), std::string::npos);

    auto unknown_preset = spec;
    unknown_preset.presets = {"warp"};
    EXPECT_FALSE(
        service::toSweepRequest(unknown_preset, &error).has_value());

    auto unknown_metric = spec;
    unknown_metric.metric = "warp";
    EXPECT_FALSE(
        service::toSweepRequest(unknown_metric, &error).has_value());

    // Contradictory resolved requests fail the SweepRequest check.
    auto contradictory = spec;
    contradictory.checkpointDir = "ckpt"; // dir without sampling
    EXPECT_FALSE(
        service::toSweepRequest(contradictory, &error).has_value());
    EXPECT_NE(error.find("sampled"), std::string::npos);
}

TEST(ServiceServer, StreamsManifestsByteEquivalentToTheCliPath)
{
    namespace fs = std::filesystem;
    const std::string socket = uniqueSocketPath("differential");
    const std::string cli_dir =
        testing::TempDir() + "/sacd_cli_manifests";
    fs::remove_all(cli_dir);

    SweepServer server({socket, 2, 8});
    ASSERT_TRUE(server.start());
    const auto frames =
        roundTrip(socket, submitBody(",\"metric\":\"amat\""));
    server.drain();

    ASSERT_GE(frames.size(), 2u);
    EXPECT_EQ(frameType(frames.front()), "accepted");
    EXPECT_EQ(frameType(frames.back()), "done");
    std::map<std::string, std::string> streamed;
    for (const auto &frame : frames)
        if (frameType(frame) == "manifest")
            streamed[frame.find("file")->asString()] =
                frame.find("document")->asString();
    ASSERT_EQ(streamed.size(), 2u); // MV x {standard, soft}

    // The CLI-equivalent run of the same request.
    harness::Runner cli;
    harness::SweepRequest request;
    request.workloads = {
        {"MV",
         [] { return workloads::makeBenchmarkTrace("MV"); },
         nullptr}};
    request.configs = {core::presets().get("standard"),
                       core::presets().get("soft")};
    request.metric = harness::amatMetric();
    request.telemetry.manifestDir = cli_dir;
    const harness::SweepResult result = cli.run(request);

    const Json *table = frames.back().find("table");
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->asString(), result.table.toString());
    for (const auto &cell : result.cells) {
        SCOPED_TRACE(cell.manifestFile);
        const auto it = streamed.find(cell.manifestFile);
        ASSERT_NE(it, streamed.end());
        std::ifstream is(cli_dir + "/" + cell.manifestFile);
        std::ostringstream os;
        os << is.rdbuf();
        EXPECT_EQ(stripTiming(it->second), stripTiming(os.str()));
    }
    fs::remove_all(cli_dir);
}

TEST(ServiceServer, ConcurrentClientsShareOneStackPass)
{
    const std::string socket = uniqueSocketPath("stackshare");
    SweepServer server({socket, 4, 16});
    ASSERT_TRUE(server.start());

    // Four clients, same stack-eligible lattice (standard + 2way are
    // both plain LRU): the shared runner must serve every client from
    // ONE single-pass traversal and ONE generated trace.
    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    std::atomic<int> done{0};
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&socket, &done] {
            const auto frames = roundTrip(
                socket,
                "{\"verb\":\"submit\",\"workloads\":[\"MV\"],"
                "\"presets\":[\"standard\",\"2way\"]}");
            if (!frames.empty() &&
                frameType(frames.back()) == "done")
                ++done;
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(done.load(), kClients);
    EXPECT_EQ(server.runner().stackCounter("stack.pass.traversals"),
              1u);
    EXPECT_EQ(server.runner().tracesGenerated(), 1u);
    EXPECT_EQ(server.runner().runsExecuted(), 0u); // all stack-served
    server.drain();
}

TEST(ServiceServer, ConcurrentClientsShareOneCheckpointBuild)
{
    namespace fs = std::filesystem;
    const std::string socket = uniqueSocketPath("ckptshare");
    const std::string ckpt_dir =
        testing::TempDir() + "/sacd_shared_ckpt";
    fs::remove_all(ckpt_dir);

    SweepServer server({socket, 4, 16});
    ASSERT_TRUE(server.start());

    const std::string body =
        "{\"verb\":\"submit\",\"workloads\":[\"MV\"],"
        "\"presets\":[\"standard\"],"
        "\"engine\":\"sampled-livepoint\","
        "\"sampling\":{\"window\":128,\"stride\":1024,"
        "\"warmup\":256},"
        "\"checkpoint_dir\":\"" +
        ckpt_dir + "\"}";
    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    std::atomic<int> done{0};
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&socket, &body, &done] {
            const auto frames = roundTrip(socket, body);
            if (!frames.empty() &&
                frameType(frames.back()) == "done")
                ++done;
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(done.load(), kClients);
    // One cell, four clients: exactly one library build (miss), no
    // second warm — the once-latched sampled store served the rest.
    EXPECT_EQ(server.runner().checkpointCounter("checkpoint.misses"),
              1u);
    EXPECT_EQ(server.runner().checkpointCounter("checkpoint.hits"),
              0u);
    EXPECT_EQ(server.runner().runsExecuted(), 1u);
    server.drain();
    fs::remove_all(ckpt_dir);
}

TEST(ServiceServer, OutOfRangePrioritySubmitCompletes)
{
    const std::string socket = uniqueSocketPath("saturate");
    SweepServer server({socket, 1, 8});
    ASSERT_TRUE(server.start());
    const auto frames = roundTrip(
        socket, submitBody(",\"priority\":-1e300,\"jobs\":1e300"));
    server.drain();
    ASSERT_GE(frames.size(), 2u);
    EXPECT_EQ(frameType(frames.front()), "accepted");
    EXPECT_EQ(frameType(frames.back()), "done");
}

TEST(ServiceServer, AdmissionControlRejectsBeyondTheBound)
{
    const std::string socket = uniqueSocketPath("admission");
    SweepServer server({socket, 1, 0}); // bound 0: reject everything
    ASSERT_TRUE(server.start());

    const auto frames = roundTrip(socket, submitBody());
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frameType(frames.front()), "error");
    EXPECT_NE(frames.front().find("error")->asString().find(
                  "queue full"),
              std::string::npos);

    const auto status =
        roundTrip(socket, "{\"verb\":\"status\"}");
    ASSERT_EQ(status.size(), 1u);
    EXPECT_EQ(status.front().find("rejected")->asUint(), 1u);
    EXPECT_EQ(status.front().find("accepted")->asUint(), 0u);
    server.drain();
}

TEST(ServiceServer, MetricsVerbExposesPrometheusCounters)
{
    const std::string socket = uniqueSocketPath("metrics");
    SweepServer server({socket, 2, 8});
    ASSERT_TRUE(server.start());
    roundTrip(socket, submitBody());

    const auto frames =
        roundTrip(socket, "{\"verb\":\"metrics\"}");
    ASSERT_EQ(frames.size(), 1u);
    const std::string text =
        frames.front().find("prometheus")->asString();
    EXPECT_NE(text.find("sacd_request_accepted 1"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sacd_request_completed counter"),
              std::string::npos);
    EXPECT_NE(text.find("sacd_stack_pass_traversals"),
              std::string::npos);
    EXPECT_NE(text.find("sacd_stack_pass_mru_records"),
              std::string::npos);
    // Both presets share one shadow geometry: one classification pass.
    EXPECT_NE(text.find("sacd_classify_passes 1\n"), std::string::npos);
    EXPECT_NE(text.find("sacd_classify_records"), std::string::npos);
    EXPECT_NE(text.find("sacd_classify_bytes"), std::string::npos);
    server.drain();
}

TEST(ServiceServer, RepeatedRequestRendersNoNewManifests)
{
    const std::string socket = uniqueSocketPath("manifest-latch");
    SweepServer server({socket, 2, 8});
    ASSERT_TRUE(server.start());
    const auto metric = [&](const std::string &name) {
        const auto frames = roundTrip(socket, "{\"verb\":\"metrics\"}");
        EXPECT_EQ(frames.size(), 1u);
        const std::string text =
            frames.front().find("prometheus")->asString();
        const std::string key = "sacd_" + name + " ";
        const auto at = text.find("\n" + key);
        EXPECT_NE(at, std::string::npos) << key;
        return at == std::string::npos
                   ? ~0ull
                   : std::stoull(text.substr(at + 1 + key.size()));
    };

    const auto first = roundTrip(socket, submitBody());
    EXPECT_EQ(metric("manifest_renders"), 2u); // MV x {standard, soft}
    EXPECT_EQ(metric("manifest_reuses"), 0u);
    EXPECT_GT(metric("manifest_bytes"), 0u);

    const auto second = roundTrip(socket, submitBody());
    EXPECT_EQ(metric("manifest_renders"), 2u); // no new documents
    EXPECT_EQ(metric("manifest_reuses"), 2u);
    const auto documents = [](const std::vector<Json> &frames) {
        std::map<std::string, std::string> out;
        for (const auto &frame : frames)
            if (frameType(frame) == "manifest")
                out[frame.find("file")->asString()] =
                    frame.find("document")->asString();
        return out;
    };
    EXPECT_EQ(documents(second).size(), 2u);
    EXPECT_EQ(documents(second), documents(first)); // byte for byte
    server.drain();
}

TEST(ServiceServer, DrainCompletesAdmittedSweeps)
{
    const std::string socket = uniqueSocketPath("drain");
    SweepServer server({socket, 2, 8});
    ASSERT_TRUE(server.start());

    // Submit, wait for admission, THEN drain: the already-admitted
    // sweep must finish and stream its full response mid-drain.
    const int fd = connectTo(socket);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeFrame(fd, submitBody()));
    std::string payload;
    ASSERT_TRUE(readFrame(fd, payload));
    EXPECT_EQ(frameType(*Json::parse(payload)), "accepted");

    std::thread drainer([&server] { server.drain(); });
    std::vector<Json> frames;
    while (readFrame(fd, payload))
        frames.push_back(*Json::parse(payload));
    ::close(fd);
    drainer.join();

    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frameType(frames.back()), "done");
    bool saw_manifest = false;
    for (const auto &frame : frames)
        saw_manifest = saw_manifest || frameType(frame) == "manifest";
    EXPECT_TRUE(saw_manifest);
}

TEST(ServiceServer, ShutdownVerbRequestsTermination)
{
    const std::string socket = uniqueSocketPath("shutdown");
    SweepServer server({socket, 1, 4});
    ASSERT_TRUE(server.start());
    EXPECT_FALSE(server.shutdownRequested());

    const auto frames =
        roundTrip(socket, "{\"verb\":\"shutdown\"}");
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frameType(frames.front()), "shutdown");
    EXPECT_TRUE(server.waitForShutdown(2000));
    server.drain();
}

TEST(ServiceServer, ReapsFinishedConnectionHandlers)
{
    namespace fs = std::filesystem;
    const auto live_threads = [] {
        std::size_t n = 0;
        for (const auto &e : fs::directory_iterator("/proc/self/task")) {
            (void)e;
            ++n;
        }
        return n;
    };
    const std::string socket = uniqueSocketPath("reap");
    SweepServer server({socket, 2, 8});
    ASSERT_TRUE(server.start());
    const std::size_t started = live_threads(); // + accept + 2 workers

    // Every connection gets its own handler thread; a long-lived
    // server must join the finished ones instead of keeping all 500
    // (and their stacks) until drain.
    for (int i = 0; i < 500; ++i) {
        const auto frames = roundTrip(socket, "{\"verb\":\"status\"}");
        ASSERT_EQ(frames.size(), 1u);
        ASSERT_EQ(frameType(frames.front()), "status");
    }
    std::size_t now = live_threads();
    for (int tick = 0; tick < 40 && now > started + 2; ++tick) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        now = live_threads();
    }
    EXPECT_LE(now, started + 2);
    server.drain();
}

} // namespace
