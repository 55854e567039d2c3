/**
 * @file
 * Persistent worker pool with a dynamic chunk scheduler.
 *
 * The frame encoder's tile loop is badly load-imbalanced: foveal-bypass
 * tiles cost O(tile border) while adjusted tiles run the full Fig. 7
 * flow, so static striding leaves threads idle behind whichever stripe
 * caught the peripheral tiles. This pool keeps its workers alive across
 * frames (no per-frame std::thread spawn/join, which costs more than a
 * whole tile) and schedules ranges dynamically off a shared atomic
 * counter: each participant repeatedly claims the next chunk of indices
 * until the range is exhausted.
 *
 * Every participant has a stable slot id (0 = the calling thread), so
 * callers can keep per-slot scratch state and accumulate per-slot
 * results deterministically. The scheduler only affects *which* slot
 * processes an index, never the result: tiles are independent, so
 * output is bit-identical for any worker count (tests assert this).
 *
 * A dispatch borrows its callable for the call (a function pointer
 * plus a context pointer, no std::function wrapping), so handing a
 * capturing lambda to the workers allocates nothing.
 */

#ifndef PCE_COMMON_THREAD_POOL_HH
#define PCE_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pce {

/** A fixed set of persistent worker threads. */
class ThreadPool
{
  public:
    /**
     * @param workers Number of pool threads to spawn; the calling
     *        thread of dispatch() always participates on top of these,
     *        so a pool of N workers can run N+1 parallel slots.
     */
    explicit ThreadPool(int workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workerCount() const
    { return static_cast<int>(threads_.size()); }

    /**
     * Run @p fn(slot) on min(participants, workerCount()+1) threads:
     * slot 0 on the calling thread, slots 1..k on pool workers. Blocks
     * until every participant returns — including when @p fn throws:
     * the first exception (caller's slot preferred) is rethrown here
     * only after all participants have finished, so captured state
     * never outlives its users. Serialized: concurrent dispatch calls
     * from different threads queue behind one another.
     */
    template <class Fn>
    void dispatch(int participants, const Fn &fn)
    {
        run(participants, &invokeJob<Fn>, &fn);
    }

    /**
     * Dynamic parallel-for: participants repeatedly claim chunks of
     * @p grain indices from [0, n) off a shared atomic counter and call
     * @p body(begin, end, slot) for each claimed range. Blocks until
     * the whole range is processed.
     */
    template <class Body>
    void parallelFor(std::size_t n, std::size_t grain, int participants,
                     const Body &body)
    {
        if (n == 0)
            return;
        grain = std::max<std::size_t>(1, grain);
        std::atomic<std::size_t> next{0};
        dispatch(participants, [&](int slot) {
            for (;;) {
                const std::size_t begin =
                    next.fetch_add(grain, std::memory_order_relaxed);
                if (begin >= n)
                    break;
                body(begin, std::min(n, begin + grain), slot);
            }
        });
    }

    /**
     * Participation accounting: dispatch() calls completed and the
     * summed participant count across them. Monotonic relaxed
     * atomics — individually exact, not a mutual snapshot. The sharded
     * service reports these per shard to show how much parallelism
     * each shard's encodes actually used (participants/call =
     * meanParticipants).
     */
    std::uint64_t dispatchCalls() const
    { return dispatchCalls_.load(std::memory_order_relaxed); }
    std::uint64_t participantSum() const
    { return participantSum_.load(std::memory_order_relaxed); }

  private:
    /** A borrowed job: fn(ctx, slot) calls the dispatcher's callable. */
    using JobFn = void (*)(const void *ctx, int slot);

    template <class Fn>
    static void invokeJob(const void *ctx, int slot)
    {
        (*static_cast<const Fn *>(ctx))(slot);
    }

    /** dispatch() behind the type erasure. */
    void run(int participants, JobFn fn, const void *ctx);
    void workerLoop(int worker_index);

    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    JobFn jobFn_ = nullptr;
    const void *jobCtx_ = nullptr;
    int jobWorkers_ = 0;      ///< pool workers active in the current job
    std::uint64_t generation_ = 0;
    int remaining_ = 0;       ///< workers yet to finish the current job
    std::exception_ptr jobError_;  ///< first worker exception, if any
    bool stop_ = false;

    std::mutex dispatchMutex_;  ///< serializes dispatch() callers

    std::atomic<std::uint64_t> dispatchCalls_{0};
    std::atomic<std::uint64_t> participantSum_{0};
};

} // namespace pce

#endif // PCE_COMMON_THREAD_POOL_HH
