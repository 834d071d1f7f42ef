/**
 * @file
 * Concurrency tests of util::ThreadPool: draining far more tasks than
 * workers, surviving throwing tasks, exception propagation through
 * futures, wait() semantics and clean shutdown. Run under TSan via
 * tools/check.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/util/thread_pool.hh"

namespace {

using sac::util::ThreadPool;

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DrainsManyMoreTasksThanThreads)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    std::vector<std::future<void>> futures;
    const int n = 5000; // N >> threads
    futures.reserve(n);
    for (int i = 0; i < n; ++i)
        futures.push_back(
            pool.submit([&done] { done.fetch_add(1); }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(done.load(), n);
    EXPECT_EQ(pool.tasksSubmitted(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(pool.tasksCompleted(), static_cast<std::uint64_t>(n));
}

TEST(ThreadPool, ResultsComeBackThroughFutures)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

/**
 * Stateless exception: a std::runtime_error would share its
 * refcounted COW string across threads through the exception_ptr,
 * which TSan flags as a race inside the (uninstrumented) libstdc++.
 */
struct TaskError : std::exception
{
    const char *what() const noexcept override
    {
        return "task failure";
    }
};

TEST(ThreadPool, SurvivesThrowingTasks)
{
    ThreadPool pool(2);
    std::atomic<int> ok{0};
    std::vector<std::future<void>> throwers;
    // Interleave throwing and normal tasks; the workers must outlive
    // every exception and still drain the queue.
    for (int i = 0; i < 200; ++i) {
        throwers.push_back(pool.submit([] { throw TaskError{}; }));
        pool.submit([&ok] { ok.fetch_add(1); });
    }
    int caught = 0;
    for (auto &f : throwers) {
        try {
            f.get();
        } catch (const TaskError &e) {
            EXPECT_STREQ(e.what(), "task failure");
            ++caught;
        }
    }
    EXPECT_EQ(caught, 200);
    pool.wait();
    EXPECT_EQ(ok.load(), 200);
}

TEST(ThreadPool, WaitBlocksUntilAllSubmittedTasksComplete)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 300; ++i) {
        pool.submit([&done] {
            std::this_thread::yield();
            done.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(done.load(), 300);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 500; ++i)
            pool.submit([&done] { done.fetch_add(1); });
        // No wait: the destructor must finish the queue, not drop it.
    }
    EXPECT_EQ(done.load(), 500);
}

TEST(ThreadPool, TasksActuallyRunOnMultipleThreads)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 400; ++i) {
        futures.push_back(pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_GT(ids.size(), 1u);
    EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, WaitRacesWithConcurrentSubmit)
{
    // wait() promises only that tasks submitted *so far* have
    // completed; calling it while another thread keeps submitting
    // must neither crash, deadlock, nor miss tasks. Run under TSan
    // via tools/check.sh thread.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    constexpr int n = 2000;

    std::thread producer([&] {
        for (int i = 0; i < n; ++i) {
            pool.submit([&done] { done.fetch_add(1); });
            if (i % 64 == 0)
                std::this_thread::yield();
        }
    });

    // Hammer wait() while the producer is still feeding the queue.
    for (int i = 0; i < 50; ++i) {
        pool.wait();
        std::this_thread::yield();
    }

    producer.join();
    pool.wait(); // now every submit happened-before this wait
    EXPECT_EQ(done.load(), n);
    EXPECT_EQ(pool.tasksSubmitted(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(pool.tasksCompleted(), static_cast<std::uint64_t>(n));
}

TEST(ThreadPool, DefaultThreadsIsAlwaysPositive)
{
    // hardware_concurrency() may legitimately return 0; the default
    // must still be a usable worker count.
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPool, RepeatedConstructionShutsDownCleanly)
{
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(3);
        std::atomic<int> done{0};
        for (int i = 0; i < 50; ++i)
            pool.submit([&done] { done.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(done.load(), 50);
    }
}

} // namespace
