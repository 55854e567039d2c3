#include "common/thread_pool.hh"

#include <algorithm>
#include <stdexcept>

namespace pce {

ThreadPool::ThreadPool(int workers)
{
    if (workers < 0)
        throw std::invalid_argument("ThreadPool: negative worker count");
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back(&ThreadPool::workerLoop, this, i);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::workerLoop(int worker_index)
{
    std::uint64_t seen = 0;
    for (;;) {
        JobFn job = nullptr;
        const void *ctx = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            if (worker_index < jobWorkers_) {
                job = jobFn_;
                ctx = jobCtx_;
            }
        }
        if (!job)
            continue;
        std::exception_ptr error;
        try {
            job(ctx, worker_index + 1);
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !jobError_)
                jobError_ = error;
            if (--remaining_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::run(int participants, JobFn fn, const void *ctx)
{
    participants = std::clamp(participants, 1, workerCount() + 1);
    dispatchCalls_.fetch_add(1, std::memory_order_relaxed);
    participantSum_.fetch_add(static_cast<std::uint64_t>(participants),
                              std::memory_order_relaxed);
    if (participants == 1) {
        fn(ctx, 0);
        return;
    }

    std::lock_guard<std::mutex> serialize(dispatchMutex_);
    const int pool_workers = participants - 1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        jobFn_ = fn;
        jobCtx_ = ctx;
        jobWorkers_ = pool_workers;
        remaining_ = pool_workers;
        ++generation_;
    }
    wake_.notify_all();

    // The caller participates too. If its slot throws, the workers are
    // still running the job lambda, whose captured state lives in the
    // caller's stack frames — always wait for them before unwinding.
    std::exception_ptr caller_error;
    try {
        fn(ctx, 0);
    } catch (...) {
        caller_error = std::current_exception();
    }

    std::exception_ptr worker_error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return remaining_ == 0; });
        jobFn_ = nullptr;
        jobCtx_ = nullptr;
        jobWorkers_ = 0;
        worker_error = jobError_;
        jobError_ = nullptr;
    }
    if (caller_error)
        std::rethrow_exception(caller_error);
    if (worker_error)
        std::rethrow_exception(worker_error);
}

} // namespace pce
