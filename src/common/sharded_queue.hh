/**
 * @file
 * Sharded bounded MPMC queue with lane exclusivity and cross-shard
 * work stealing — the request spine of the *sharded* encode service
 * (src/service).
 *
 * Scaling the service across cores needs N consumers that stay busy
 * without violating per-stream ordering. This queue structures who
 * owns the requests:
 *
 *  - **Shards.** Storage is N bounded rings, one per shard, each with
 *    its own fixed preallocated storage and its own not-full condition
 *    variable, so producer backpressure is per shard (pushes to a
 *    loaded shard block; other shards keep accepting).
 *  - **Lanes.** Every element carries a lane id (the service maps one
 *    stream to one lane). The queue guarantees *lane exclusivity with
 *    FIFO hand-out*: at any moment at most one popped-but-unfinished
 *    element per lane exists, and elements of a lane are handed out in
 *    push order. A consumer signals completion with finishLane(),
 *    which is what makes the next element of that lane eligible.
 *    Combined, these give the service per-stream FIFO *completion*
 *    order even when different shards encode a stream's consecutive
 *    frames: one at a time, started in order.
 *  - **Stealing.** popForShard(s) serves shard s's own ring first;
 *    when it is empty, the consumer steals the oldest *eligible*
 *    element from the most-loaded other shard (whole requests change
 *    hands, in the exposed-datapath spirit: keep every execution unit
 *    busy by letting idle owners drain loaded queues, not by adding
 *    threads behind a serial drain). An element is eligible when its
 *    lane is not currently held. Steals are counted per shard, both
 *    directions.
 *
 * Locking: one queue-wide mutex guards all ring metadata, the busy-
 * lane set, and the counters. This is deliberate — a steal needs a
 * consistent view across rings, and every critical section is an
 * O(capacity) scan over pointer-sized entries (nanoseconds) while the
 * work items the service queues behind it are millisecond-scale frame
 * encodes; fine-grained per-ring locks would buy nothing and cost a
 * lock-ordering protocol. The structural per-shard properties —
 * bounded per-shard storage, per-shard producer wakeups — are
 * preserved. Consumers share one not-empty condition variable because
 * stealing makes them interchangeable: any consumer can serve any
 * eligible element, so a wakeup is never wasted on the "wrong" shard.
 *
 * Close/drain protocol: after close(), pushes are
 * refused but every queued element is still handed out (a consumer
 * blocked on an ineligible element waits for the lane holder's
 * finishLane, then drains it), and popForShard returns std::nullopt
 * only once the queue is closed *and* empty.
 *
 * Steady state allocates nothing: rings are fixed storage sized at
 * construction, and the busy-lane set is a fixed array of
 * `shards` entries (one per consumer — a consumer holds at most one
 * lane, and the service runs one consumer per shard).
 */

#ifndef PCE_COMMON_SHARDED_QUEUE_HH
#define PCE_COMMON_SHARDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace pce {

/** Sharded bounded FIFO with lane exclusivity and work stealing. */
template <typename T>
class ShardedStealQueue
{
  public:
    /** One handed-out element plus its routing provenance. */
    struct Popped
    {
        T value{};
        std::uint64_t lane = 0;   ///< pass to finishLane() when done
        std::size_t homeShard = 0;  ///< shard the element was pushed to
        bool stolen = false;        ///< served to a non-home consumer
    };

    /** Point-in-time per-shard statistics (see the accessors). */
    struct ShardCounters
    {
        std::size_t depth = 0;      ///< queued elements right now
        std::size_t peakDepth = 0;  ///< deepest this ring has been
        std::uint64_t pushes = 0;   ///< elements pushed to this shard
        /** Elements this shard's consumers took from other shards. */
        std::uint64_t stealsBy = 0;
        /** Elements pushed here but served by another shard. */
        std::uint64_t stolenFrom = 0;
    };

    /**
     * @param shards Ring count (and expected consumer count); >= 1.
     * @param capacity_per_shard Bound of each ring; >= 1.
     */
    ShardedStealQueue(std::size_t shards, std::size_t capacity_per_shard)
        : capacity_(capacity_per_shard < 1 ? 1 : capacity_per_shard)
    {
        if (shards < 1)
            throw std::invalid_argument(
                "ShardedStealQueue: shards < 1");
        shards_.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s)
            shards_.push_back(std::make_unique<Shard>(capacity_));
        busyLanes_.assign(shards, 0);
        busyUsed_.assign(shards, false);
    }

    ShardedStealQueue(const ShardedStealQueue &) = delete;
    ShardedStealQueue &operator=(const ShardedStealQueue &) = delete;

    std::size_t shardCount() const { return shards_.size(); }
    std::size_t capacityPerShard() const { return capacity_; }
    /** Total bound across all rings. */
    std::size_t capacity() const { return capacity_ * shards_.size(); }

    /**
     * Block until shard @p shard has room, then enqueue @p value on
     * its ring under @p lane.
     *
     * @return false when the queue was closed (before or while
     *         waiting); the element is not enqueued in that case.
     */
    bool push(std::size_t shard, std::uint64_t lane, T value)
    {
        Shard &sh = *shards_.at(shard);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            sh.notFull.wait(lock, [&] {
                return closed_ || sh.count < capacity_;
            });
            if (closed_)
                return false;
            Entry &e = sh.ring[(sh.head + sh.count) % capacity_];
            e.value = std::move(value);
            e.lane = lane;
            ++sh.count;
            ++sh.pushes;
            ++totalCount_;
            if (sh.count > sh.peak)
                sh.peak = sh.count;
            if (totalCount_ > aggregatePeak_)
                aggregatePeak_ = totalCount_;
        }
        // All consumers are interchangeable (stealing), so wake them
        // all: whoever is idle picks the element up, the rest re-park.
        notEmpty_.notify_all();
        return true;
    }

    /**
     * Block until an eligible element is available — shard @p shard's
     * ring first, then a steal from the most-loaded other shard — or
     * the queue is closed and drained. The returned element's lane is
     * held by the caller until finishLane(); elements of a held lane
     * are not handed out to anyone.
     *
     * @return The element, or std::nullopt once closed *and* empty.
     */
    std::optional<Popped> popForShard(std::size_t shard)
    {
        if (shard >= shards_.size())
            throw std::invalid_argument(
                "ShardedStealQueue: bad shard index");
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (std::optional<Popped> p = takeLocked(shard)) {
                lock.unlock();
                // Space freed on the home ring: wake its producers.
                shards_[p->homeShard]->notFull.notify_one();
                return p;
            }
            if (closed_ && totalCount_ == 0)
                return std::nullopt;
            // Nothing eligible: either every ring is empty, or every
            // queued element's lane is held. finishLane() and push()
            // both notify, so this wait cannot be missed.
            notEmpty_.wait(lock);
        }
    }

    /**
     * Release the exclusivity of @p lane (taken by popForShard) and
     * wake consumers: the lane's next queued element, if any, just
     * became eligible.
     */
    void finishLane(std::uint64_t lane)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::size_t i = 0; i < busyUsed_.size(); ++i) {
                if (busyUsed_[i] && busyLanes_[i] == lane) {
                    busyUsed_[i] = false;
                    notEmpty_.notify_all();
                    return;
                }
            }
        }
        throw std::logic_error(
            "ShardedStealQueue::finishLane: lane not held");
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
        for (const auto &sh : shards_)
            sh->notFull.notify_all();
    }

    bool closed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Queued elements across all shards (stats only). */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return totalCount_;
    }

    /**
     * Deepest the *aggregate* backlog has ever been — the
     * single-queue-comparable backlog metric (sampled inside push, so
     * it is exact, not racy).
     */
    std::size_t aggregatePeakDepth() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return aggregatePeak_;
    }

    /** Consistent snapshot of one shard's counters. */
    ShardCounters counters(std::size_t shard) const
    {
        const Shard &sh = *shards_.at(shard);
        std::lock_guard<std::mutex> lock(mutex_);
        ShardCounters c;
        c.depth = sh.count;
        c.peakDepth = sh.peak;
        c.pushes = sh.pushes;
        c.stealsBy = sh.stealsBy;
        c.stolenFrom = sh.stolenFrom;
        return c;
    }

  private:
    struct Entry
    {
        T value{};
        std::uint64_t lane = 0;
    };

    /** One bounded ring. Metadata is guarded by the queue mutex. */
    struct Shard
    {
        explicit Shard(std::size_t capacity) : ring(capacity) {}
        std::vector<Entry> ring;  ///< fixed storage, allocated once
        std::size_t head = 0;
        std::size_t count = 0;
        std::condition_variable notFull;  ///< per-shard backpressure
        std::size_t peak = 0;
        std::uint64_t pushes = 0;
        std::uint64_t stealsBy = 0;
        std::uint64_t stolenFrom = 0;
        /** Steal-scan scratch: victim already tried this round. */
        bool tried = false;
    };

    bool laneHeldLocked(std::uint64_t lane) const
    {
        for (std::size_t i = 0; i < busyUsed_.size(); ++i)
            if (busyUsed_[i] && busyLanes_[i] == lane)
                return true;
        return false;
    }

    void holdLaneLocked(std::uint64_t lane)
    {
        for (std::size_t i = 0; i < busyUsed_.size(); ++i) {
            if (!busyUsed_[i]) {
                busyUsed_[i] = true;
                busyLanes_[i] = lane;
                return;
            }
        }
        // More concurrent consumers than shards: unexpected in the
        // service (one dispatcher per shard) but kept correct.
        busyUsed_.push_back(true);
        busyLanes_.push_back(lane);
    }

    /**
     * Oldest eligible element of @p from's ring, removed in place
     * (later elements keep their relative order). All elements of a
     * lane live on one ring in push order, so the first non-held
     * occurrence scanned from the head is that lane's global oldest —
     * the FIFO half of the lane contract.
     */
    std::optional<Popped> takeFromLocked(std::size_t from,
                                         std::size_t consumer)
    {
        Shard &sh = *shards_[from];
        for (std::size_t i = 0; i < sh.count; ++i) {
            Entry &e = sh.ring[(sh.head + i) % capacity_];
            if (laneHeldLocked(e.lane))
                continue;  // held lane: its whole run is ineligible
            Popped p;
            p.value = std::move(e.value);
            p.lane = e.lane;
            p.homeShard = from;
            p.stolen = from != consumer;
            holdLaneLocked(p.lane);
            // Close the gap by shifting the front of the ring back one
            // slot (O(i) moves of small entries, i < capacity).
            for (std::size_t j = i; j > 0; --j)
                sh.ring[(sh.head + j) % capacity_] =
                    std::move(sh.ring[(sh.head + j - 1) % capacity_]);
            sh.head = (sh.head + 1) % capacity_;
            --sh.count;
            --totalCount_;
            if (p.stolen) {
                ++shards_[consumer]->stealsBy;
                ++sh.stolenFrom;
            }
            return p;
        }
        return std::nullopt;
    }

    /** Own ring first, then steal from the most-loaded other shard. */
    std::optional<Popped> takeLocked(std::size_t consumer)
    {
        if (std::optional<Popped> p =
                takeFromLocked(consumer, consumer))
            return p;
        // Steal scan: prefer the deepest backlog; ties go to the
        // lowest index (deterministic given a fixed queue state).
        for (;;) {
            std::size_t victim = shards_.size();
            std::size_t depth = 0;
            for (std::size_t s = 0; s < shards_.size(); ++s) {
                if (s == consumer || shards_[s]->tried)
                    continue;
                if (shards_[s]->count > depth) {
                    depth = shards_[s]->count;
                    victim = s;
                }
            }
            if (victim == shards_.size())
                break;
            shards_[victim]->tried = true;
            if (std::optional<Popped> p =
                    takeFromLocked(victim, consumer)) {
                clearTriedLocked();
                return p;
            }
        }
        clearTriedLocked();
        return std::nullopt;
    }

    void clearTriedLocked()
    {
        for (const auto &sh : shards_)
            sh->tried = false;
    }

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;  ///< shared consumer wakeup
    std::vector<std::unique_ptr<Shard>> shards_;
    /** Held lanes: fixed parallel arrays, one slot per consumer. */
    std::vector<std::uint64_t> busyLanes_;
    std::vector<bool> busyUsed_;
    std::size_t totalCount_ = 0;
    std::size_t aggregatePeak_ = 0;
    bool closed_ = false;
};

} // namespace pce

#endif // PCE_COMMON_SHARDED_QUEUE_HH
