/**
 * @file
 * Tests for the persistent worker pool and its dynamic chunk scheduler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace pce {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, 7, 4, [&](std::size_t begin, std::size_t end,
                                  int slot) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, 4);
        for (std::size_t i = begin; i < end; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossManyRuns)
{
    // The whole point of the pool: many frames, one set of workers.
    ThreadPool pool(2);
    for (int run = 0; run < 50; ++run) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, 3, 3,
                         [&](std::size_t begin, std::size_t end, int) {
                             std::size_t local = 0;
                             for (std::size_t i = begin; i < end; ++i)
                                 local += i;
                             sum.fetch_add(local);
                         });
        EXPECT_EQ(sum.load(), 100u * 99u / 2u) << "run " << run;
    }
}

TEST(ThreadPool, ParticipantsClampedToPoolSize)
{
    ThreadPool pool(2);
    std::mutex m;
    std::set<int> slots;
    pool.parallelFor(64, 1, 99,
                     [&](std::size_t, std::size_t, int slot) {
                         std::lock_guard<std::mutex> lock(m);
                         slots.insert(slot);
                     });
    // Slots are 0 (caller) plus at most the two pool workers.
    for (const int s : slots)
        EXPECT_LT(s, 3);
}

TEST(ThreadPool, ZeroWorkersRunsOnCaller)
{
    ThreadPool pool(0);
    std::size_t count = 0;
    pool.parallelFor(10, 4, 8,
                     [&](std::size_t begin, std::size_t end, int slot) {
                         EXPECT_EQ(slot, 0);
                         count += end - begin;
                     });
    EXPECT_EQ(count, 10u);
}

TEST(ThreadPool, EmptyRangeMakesNoCalls)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(0, 4, 3, [&](std::size_t, std::size_t, int) {
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, DispatchGivesEachParticipantItsOwnSlot)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> seen(4);
    pool.dispatch(4, [&](int slot) {
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, 4);
        seen[slot].fetch_add(1);
    });
    for (int s = 0; s < 4; ++s)
        EXPECT_EQ(seen[s].load(), 1) << "slot " << s;
}

TEST(ThreadPool, CallerExceptionWaitsForWorkersAndPropagates)
{
    ThreadPool pool(2);
    // Workers hold their first chunk until the caller has taken one:
    // with free-running workers a slow caller thread (e.g. under
    // ThreadSanitizer) can find the range already drained and never
    // reach its throw.
    std::atomic<bool> caller_threw{false};
    std::atomic<int> worker_chunks{0};
    EXPECT_THROW(
        pool.parallelFor(300, 1, 3,
                         [&](std::size_t, std::size_t, int slot) {
                             if (slot == 0) {
                                 caller_threw.store(true);
                                 throw std::runtime_error("caller");
                             }
                             while (!caller_threw.load())
                                 std::this_thread::yield();
                             worker_chunks.fetch_add(1);
                         }),
        std::runtime_error);
    // The pool must be fully quiesced and reusable afterwards.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(50, 4, 3,
                     [&](std::size_t begin, std::size_t end, int) {
                         count.fetch_add(end - begin);
                     });
    EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller)
{
    ThreadPool pool(2);
    for (int attempt = 0; attempt < 20; ++attempt) {
        // Both workers may throw at once: the flag must be atomic.
        std::atomic<bool> worker_ran{false};
        try {
            pool.parallelFor(300, 1, 3,
                             [&](std::size_t, std::size_t, int slot) {
                                 if (slot != 0) {
                                     worker_ran = true;
                                     throw std::runtime_error("worker");
                                 }
                             });
        } catch (const std::runtime_error &) {
            EXPECT_TRUE(worker_ran);
            return;  // a worker got a chunk and its throw surfaced
        }
        // All 300 chunks may have landed on the caller; retry.
        EXPECT_FALSE(worker_ran);
    }
    GTEST_SKIP() << "workers never claimed a chunk; single-core sched";
}

TEST(ThreadPool, RejectsNegativeWorkerCount)
{
    EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

} // namespace
} // namespace pce
