/**
 * @file
 * A minimal fixed-size work-queue thread pool used by the parallel
 * sweep executor (harness::Runner::run). Tasks are arbitrary
 * callables; submit() returns a std::future so exceptions thrown by a
 * task are captured and re-raised in the waiting thread instead of
 * terminating the worker. The destructor drains the queue and joins
 * every worker, so a pool can be created per sweep without leaking
 * threads.
 */

#ifndef SAC_UTIL_THREAD_POOL_HH
#define SAC_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sac {
namespace util {

/** Fixed-size pool of workers draining a FIFO task queue. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers; 0 is clamped to 1. The pool never
     * grows or shrinks after construction.
     */
    explicit ThreadPool(unsigned threads);

    /** Finish every queued task, then join all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /** Tasks accepted over the pool's lifetime. */
    std::uint64_t tasksSubmitted() const;

    /** Tasks that finished running (normally or by throwing). */
    std::uint64_t tasksCompleted() const;

    /**
     * Queue @p fn for execution. The returned future yields fn's
     * result; a throwing task stores its exception in the future and
     * leaves the worker alive. The future becomes ready only after
     * the pool counted the task, so a caller that got the result sees
     * it in tasksCompleted().
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto promise = std::make_shared<std::promise<R>>();
        std::future<R> result = promise->get_future();
        auto body = std::make_shared<std::decay_t<F>>(std::forward<F>(fn));
        // Run now, publish later: the worker calls the returned
        // closure after counting the task complete.
        enqueue([promise, body]() -> Publish {
            try {
                if constexpr (std::is_void_v<R>) {
                    (*body)();
                    return [promise] { promise->set_value(); };
                } else {
                    auto value = std::make_shared<R>((*body)());
                    return [promise, value] {
                        promise->set_value(std::move(*value));
                    };
                }
            } catch (...) {
                return [promise, e = std::current_exception()] {
                    promise->set_exception(e);
                };
            }
        });
        return result;
    }

    /** Block until every task submitted so far has completed. */
    void wait();

    /**
     * Sensible default worker count for simulation sweeps: the
     * hardware concurrency, or 1 (with a one-time warning) when the
     * hardware concurrency is unknown.
     */
    static unsigned defaultThreads();

  private:
    /** Fulfils a finished task's future. */
    using Publish = std::function<void()>;
    /** Runs a task's body and returns how to publish its outcome. */
    using Task = std::function<Publish()>;

    void enqueue(Task task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable wake_;     //!< workers wait for tasks
    std::condition_variable drained_;  //!< wait() sleeps here
    std::deque<Task> queue_;
    std::vector<std::thread> workers_;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    bool stopping_ = false;
};

} // namespace util
} // namespace sac

#endif // SAC_UTIL_THREAD_POOL_HH
