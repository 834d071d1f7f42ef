#include "src/service/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <list>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/util/logging.hh"

namespace sac {
namespace service {

SweepServer::SweepServer(ServerOptions options)
    : options_(std::move(options))
{
}

SweepServer::~SweepServer()
{
    drain();
}

bool
SweepServer::start()
{
    SAC_ASSERT(!started_, "SweepServer::start() called twice");
    sockaddr_un addr{};
    if (options_.socketPath.empty() ||
        options_.socketPath.size() >= sizeof(addr.sun_path)) {
        std::cerr << "sacd: invalid socket path '"
                  << options_.socketPath << "'\n";
        return false;
    }
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        std::cerr << "sacd: socket: " << std::strerror(errno) << "\n";
        return false;
    }
    ::unlink(options_.socketPath.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 16) != 0) {
        std::cerr << "sacd: bind/listen '" << options_.socketPath
                  << "': " << std::strerror(errno) << "\n";
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    const unsigned workers =
        options_.workers > 0 ? options_.workers
                             : util::ThreadPool::defaultThreads();
    pool_ = std::make_unique<util::ThreadPool>(workers);
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
SweepServer::acceptLoop()
{
    struct Handler
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::list<Handler> handlers;
    while (!stopping_.load()) {
        // Reap finished handlers every tick, so a long-lived server
        // holds threads (and their stacks) only for live connections.
        for (auto it = handlers.begin(); it != handlers.end();) {
            if (it->done->load()) {
                it->thread.join();
                it = handlers.erase(it);
            } else {
                ++it;
            }
        }
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 50);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto done = std::make_shared<std::atomic<bool>>(false);
        handlers.push_back({std::thread([this, fd, done] {
                                handleConnection(fd);
                                done->store(true);
                            }),
                            done});
    }
    for (auto &h : handlers)
        h.thread.join();
}

void
SweepServer::handleConnection(int fd)
{
    std::string payload;
    if (!readFrame(fd, payload)) {
        ::close(fd);
        return;
    }
    std::string error;
    const auto request = parseRequest(payload, &error);
    if (!request) {
        writeFrame(fd, errorResponse(error));
        ::close(fd);
        return;
    }
    switch (request->verb) {
    case Verb::Status:
        writeFrame(fd, statusResponse());
        ::close(fd);
        return;
    case Verb::Metrics: {
        util::Json doc = util::Json::object();
        doc.set("type", "metrics");
        doc.set("prometheus", prometheusText());
        writeFrame(fd, doc.dump(0));
        ::close(fd);
        return;
    }
    case Verb::Shutdown: {
        util::Json doc = util::Json::object();
        doc.set("type", "shutdown");
        doc.set("draining", true);
        writeFrame(fd, doc.dump(0));
        ::close(fd);
        {
            // Lock so a concurrent waitForShutdown() between its
            // predicate check and its sleep cannot miss the notify.
            std::lock_guard<std::mutex> lock(mutex_);
            shutdownRequested_.store(true);
        }
        shutdown_.notify_all();
        return;
    }
    case Verb::Submit:
        handleSubmit(fd, request->spec,
                     std::make_shared<std::mutex>());
        return;
    }
}

void
SweepServer::handleSubmit(int fd, const SweepSpec &spec,
                          std::shared_ptr<std::mutex> write_mutex)
{
    std::string error;
    auto sweep = toSweepRequest(spec, &error);
    if (!sweep) {
        writeFrame(fd, errorResponse(error));
        ::close(fd);
        return;
    }
    // Inner sweep parallelism rides the executor's thread, so cap the
    // per-request fan-out at the machine instead of trusting clients.
    sweep->jobs = std::min(sweep->jobs,
                           util::ThreadPool::defaultThreads());
    // 0 stays 0 (auto). Explicit values tolerate modest
    // oversubscription — replay correctness never depends on the
    // worker count, and differential runs on small hosts deliberately
    // ask for more workers than cores — but a wire-supplied thread
    // count must still be bounded.
    sweep->intraJobs = std::min(
        sweep->intraJobs,
        std::max(8u, util::ThreadPool::defaultThreads()));

    Job job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_.load() || pending_ >= options_.maxQueue) {
            ++rejected_;
            writeFrame(fd, errorResponse("queue full"));
            ::close(fd);
            return;
        }
        job.id = nextId_++;
        job.priority = spec.priority;
        job.request = std::move(*sweep);
        job.fd = fd;
        job.writeMutex = std::move(write_mutex);
        ++accepted_;
        ++pending_;
        writeFrame(fd, acceptedResponse(job.id, queue_.size()));
        queue_.push_back(std::move(job));
    }
    pool_->submit([this] { runOneJob(); });
}

void
SweepServer::runOneJob()
{
    Job job;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SAC_ASSERT(!queue_.empty(),
                   "sweep executor woke with an empty queue");
        // Best job now: highest priority, oldest within a priority.
        auto best = queue_.begin();
        for (auto it = std::next(queue_.begin()); it != queue_.end();
             ++it) {
            if (it->priority > best->priority ||
                (it->priority == best->priority &&
                 it->id < best->id))
                best = it;
        }
        job = std::move(*best);
        queue_.erase(best);
        ++active_;
    }

    // Stream each manifest to the client as its cell finishes. A
    // client that vanished mid-sweep just stops receiving frames —
    // the sweep completes anyway (its cells stay latched for peers).
    auto client_alive = std::make_shared<std::atomic<bool>>(true);
    job.request.telemetry.sink =
        [fd = job.fd, wm = job.writeMutex, client_alive](
            const std::string &file, const std::string &document) {
            if (!client_alive->load())
                return;
            std::lock_guard<std::mutex> lock(*wm);
            if (!writeFrame(fd, manifestResponse(file, document)))
                client_alive->store(false);
        };

    const harness::SweepResult result = runner_.run(job.request);
    {
        std::lock_guard<std::mutex> lock(*job.writeMutex);
        if (client_alive->load())
            writeFrame(job.fd,
                       doneResponse(job.id, result.cells.size(),
                                    result.table.toString()));
    }
    ::close(job.fd);

    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
    --pending_;
    ++completed_;
    idle_.notify_all();
}

void
SweepServer::drain()
{
    if (!started_ || drained_)
        return;
    drained_ = true;
    stopping_.store(true);
    // The accept loop notices stopping_ within one poll tick, joins
    // its connection handlers, and returns; admitted sweeps keep
    // their pool workers until the queue is empty.
    acceptThread_.join();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [this] { return pending_ == 0; });
    }
    pool_->wait();
    pool_.reset();
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(options_.socketPath.c_str());
}

bool
SweepServer::waitForShutdown(int timeout_ms)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto requested = [this] {
        return shutdownRequested_.load();
    };
    if (timeout_ms > 0) {
        shutdown_.wait_for(lock,
                           std::chrono::milliseconds(timeout_ms),
                           requested);
    } else {
        shutdown_.wait(lock, requested);
    }
    return shutdownRequested_.load();
}

std::string
SweepServer::statusResponse() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    util::Json doc = util::Json::object();
    doc.set("type", "status");
    doc.set("accepted", accepted_);
    doc.set("rejected", rejected_);
    doc.set("completed", completed_);
    doc.set("queued",
            static_cast<std::uint64_t>(pending_ - active_));
    doc.set("active", static_cast<std::uint64_t>(active_));
    doc.set("draining", stopping_.load());
    return doc.dump(0);
}

telemetry::CounterRegistry
SweepServer::metricsSnapshot() const
{
    telemetry::CounterRegistry reg;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reg.counter("request.accepted",
                    "submits admitted to the sweep queue") +=
            accepted_;
        reg.counter("request.rejected",
                    "submits refused by admission control") +=
            rejected_;
        reg.counter("request.completed", "sweeps finished") +=
            completed_;
        reg.counter("request.queued",
                    "sweeps admitted but not yet executing") +=
            pending_ - active_;
        reg.counter("request.active", "sweeps executing right now") +=
            active_;
    }
    for (const char *name :
         {"stack.pass.traversals", "stack.pass.records",
          "stack.pass.cells", "stack.pass.cached_cells",
          "stack.pass.fallback_cells"}) {
        reg.counter(name, "shared runner stack-engine counter") +=
            runner_.stackCounter(name);
    }
    for (const char *name : {"checkpoint.hits", "checkpoint.misses",
                             "checkpoint.stale", "checkpoint.bytes"}) {
        reg.counter(name, "shared runner checkpoint counter") +=
            runner_.checkpointCounter(name);
    }
    for (const char *name : {"parallel.windows", "parallel.shards",
                             "parallel.merge_ns"}) {
        reg.counter(name,
                    "shared runner intra-trace parallelism counter") +=
            runner_.parallelCounter(name);
    }
    return reg;
}

std::string
SweepServer::prometheusText() const
{
    return metricsSnapshot().toPrometheus("sacd");
}

} // namespace service
} // namespace sac
