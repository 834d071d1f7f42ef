#include "src/util/thread_pool.hh"

#include "src/util/logging.hh"

namespace sac {
namespace util {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

std::uint64_t
ThreadPool::tasksSubmitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
}

std::uint64_t
ThreadPool::tasksCompleted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

void
ThreadPool::enqueue(Task task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SAC_ASSERT(!stopping_, "submit() on a stopping pool");
        queue_.push_back(std::move(task));
        ++submitted_;
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] { return completed_ == submitted_; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // A task captures any exception into its outcome, so a
        // throwing task cannot take the worker down.
        const Publish publish = task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++completed_;
        }
        drained_.notify_all();
        publish();
    }
}

unsigned
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        // Warn once per process: every --jobs/--workers default funnels
        // through here, and silently running single-threaded on a
        // many-core box is the kind of slowdown nobody notices.
        static const bool warned = [] {
            warn("hardware_concurrency() is unknown; defaulting to "
                 "1 worker thread (pass --jobs/--workers explicitly)");
            return true;
        }();
        (void)warned;
        return 1u;
    }
    return hw;
}

} // namespace util
} // namespace sac
