/**
 * @file
 * Bounded MPMC queue with lane exclusivity — the request spine of the
 * encode service (src/service): producers push each stream's frames,
 * and N interchangeable dispatchers pop them.
 *
 * Scaling the service across cores needs N consumers that stay busy
 * without violating per-stream ordering. One shared FIFO does that:
 * any idle consumer takes the oldest eligible element, so buffered
 * work keeps every execution unit busy with no per-consumer rings and
 * no steal scan (the exposed-datapath idea of PAPERS.md, arXiv
 * 1804.10998, at request granularity).
 *
 *  - **Bound.** Storage is one ring of `capacity` entries, allocated
 *    once at construction; push() blocks while it is full, so the
 *    configured bound is the exact bound.
 *  - **Lanes.** Every element carries a lane id (the service maps one
 *    stream to one lane). The queue guarantees *lane exclusivity with
 *    FIFO hand-out*: at any moment at most one popped-but-unfinished
 *    element per lane exists, and elements of a lane are handed out in
 *    push order. A consumer signals completion with finishLane(),
 *    which is what makes the next element of that lane eligible.
 *    Combined, these give the service per-stream FIFO *completion*
 *    order even when different consumers take a stream's consecutive
 *    frames: one at a time, started in order.
 *
 * Locking: one mutex guards the ring, the held-lane set and the peak.
 * Every critical section is an O(capacity) scan over small entries
 * (nanoseconds) while the work items behind it are millisecond-scale
 * frame encodes. push() and finishLane() wake every consumer (either
 * can make an element eligible for whoever is idle); pop() wakes one
 * blocked producer.
 *
 * Close/drain protocol: after close(), pushes are refused but every
 * queued element is still handed out (a consumer blocked on an
 * ineligible element waits for the lane holder's finishLane, then
 * drains it), and pop() returns std::nullopt only once the queue is
 * closed *and* empty.
 *
 * Steady state allocates nothing: the ring is fixed storage, and the
 * held-lane set is reserved for `consumers` entries (a consumer holds
 * at most one lane).
 */

#ifndef PCE_COMMON_LANE_QUEUE_HH
#define PCE_COMMON_LANE_QUEUE_HH

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pce {

/** Bounded FIFO whose lanes are handed out one element at a time. */
template <typename T>
class LaneQueue
{
  public:
    /** One handed-out element. */
    struct Popped
    {
        T value{};
        std::uint64_t lane = 0;  ///< pass to finishLane() when done
    };

    /**
     * @param capacity Ring bound; >= 1.
     * @param consumers Expected concurrent consumers (sizes the
     *        held-lane set; more still work, they allocate).
     */
    explicit LaneQueue(std::size_t capacity, std::size_t consumers = 1)
        : ring_(capacity < 1 ? 1 : capacity)
    {
        held_.reserve(consumers);
    }

    LaneQueue(const LaneQueue &) = delete;
    LaneQueue &operator=(const LaneQueue &) = delete;

    std::size_t capacity() const { return ring_.size(); }

    /**
     * Block until the ring has room, then enqueue @p value under
     * @p lane.
     *
     * @return false when the queue was closed (before or while
     *         waiting); the element is not enqueued in that case.
     */
    bool push(std::uint64_t lane, T value)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notFull_.wait(lock, [&] {
                return closed_ || count_ < ring_.size();
            });
            if (closed_)
                return false;
            Entry &e = ring_[(head_ + count_) % ring_.size()];
            e.value = std::move(value);
            e.lane = lane;
            ++count_;
            peak_ = std::max(peak_, count_);
        }
        // Consumers are interchangeable, so wake them all: whoever is
        // idle picks the element up, the rest re-park.
        notEmpty_.notify_all();
        return true;
    }

    /**
     * Block until an eligible element is available or the queue is
     * closed and drained. The returned element's lane is held by the
     * caller until finishLane(); elements of a held lane are not
     * handed out to anyone.
     *
     * @return The element, or std::nullopt once closed *and* empty.
     */
    std::optional<Popped> pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (std::optional<Popped> p = takeLocked()) {
                lock.unlock();
                notFull_.notify_one();  // a slot just freed
                return p;
            }
            if (closed_ && count_ == 0)
                return std::nullopt;
            // Nothing eligible: either the ring is empty, or every
            // queued element's lane is held. finishLane() and push()
            // both notify, so this wait cannot be missed.
            notEmpty_.wait(lock);
        }
    }

    /**
     * Release the exclusivity of @p lane (taken by pop) and wake
     * consumers: the lane's next queued element, if any, just became
     * eligible.
     */
    void finishLane(std::uint64_t lane)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = std::find(held_.begin(), held_.end(), lane);
            if (it != held_.end()) {
                *it = held_.back();
                held_.pop_back();
                notEmpty_.notify_all();
                return;
            }
        }
        throw std::logic_error("LaneQueue::finishLane: lane not held");
    }

    /**
     * Refuse all future pushes and wake every waiter. Queued elements
     * remain poppable (the drain half of the protocol). Idempotent.
     */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    /** Queued elements right now (stats only). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_;
    }

    /** Deepest the ring has ever been (sampled inside push, so exact). */
    std::size_t peakDepth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return peak_;
    }

  private:
    struct Entry
    {
        T value{};
        std::uint64_t lane = 0;
    };

    /**
     * Oldest eligible element, removed in place (later elements keep
     * their relative order). A lane's elements sit in the ring in push
     * order, so the first non-held occurrence scanned from the head is
     * that lane's oldest — the FIFO half of the lane contract.
     */
    std::optional<Popped> takeLocked()
    {
        const std::size_t cap = ring_.size();
        for (std::size_t i = 0; i < count_; ++i) {
            Entry &e = ring_[(head_ + i) % cap];
            if (std::find(held_.begin(), held_.end(), e.lane) !=
                held_.end())
                continue;  // held lane: its whole run is ineligible
            Popped p{std::move(e.value), e.lane};
            held_.push_back(p.lane);
            // Close the gap by shifting the front of the ring back one
            // slot (O(i) moves of small entries, i < capacity).
            for (std::size_t j = i; j > 0; --j)
                ring_[(head_ + j) % cap] =
                    std::move(ring_[(head_ + j - 1) % cap]);
            head_ = (head_ + 1) % cap;
            --count_;
            return p;
        }
        return std::nullopt;
    }

    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;  ///< consumers wait here
    std::condition_variable notFull_;   ///< producers wait here
    std::vector<Entry> ring_;  ///< fixed storage, allocated once
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t peak_ = 0;
    /** Lanes popped and not yet finished (one per busy consumer). */
    std::vector<std::uint64_t> held_;
    bool closed_ = false;
};

} // namespace pce

#endif // PCE_COMMON_LANE_QUEUE_HH
