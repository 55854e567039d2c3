/**
 * @file
 * LaneQueue: per-lane FIFO hand-out, lane exclusivity, the exact
 * bound, close/drain protocol, peak depth, and a multi-consumer
 * stress run that checks the full contract the encode service is
 * built on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/lane_queue.hh"

namespace pce {
namespace {

TEST(LaneQueue, FifoSingleLane)
{
    LaneQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.push(7, i));
    EXPECT_EQ(q.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        auto p = q.pop();
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->value, i);
        EXPECT_EQ(p->lane, 7u);
        q.finishLane(7);
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(LaneQueue, LaneExclusivityHoldsBackSameLane)
{
    LaneQueue<int> q(8);
    ASSERT_TRUE(q.push(1, 10));
    ASSERT_TRUE(q.push(1, 11));
    ASSERT_TRUE(q.push(2, 20));

    auto first = q.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->value, 10);

    // Lane 1 is held: the next hand-out must skip 11 and serve lane 2
    // even though 11 is older in the ring.
    auto second = q.pop();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->value, 20);
    EXPECT_EQ(second->lane, 2u);

    q.finishLane(1);
    auto third = q.pop();
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->value, 11) << "lane 1 resumes in FIFO order";
    q.finishLane(2);
    q.finishLane(1);
}

TEST(LaneQueue, PushRefusedAfterCloseQueueStillDrains)
{
    LaneQueue<int> q(4);
    ASSERT_TRUE(q.push(1, 1));
    ASSERT_TRUE(q.push(2, 2));
    q.close();
    EXPECT_FALSE(q.push(3, 3));

    for (int expect : {1, 2}) {
        auto p = q.pop();
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->value, expect);
        q.finishLane(p->lane);
    }
    EXPECT_FALSE(q.pop().has_value());
}

TEST(LaneQueue, BlockedPushWakesOnClose)
{
    LaneQueue<int> q(1);
    ASSERT_TRUE(q.push(1, 1));
    std::atomic<bool> returned{false};
    std::thread producer([&] {
        EXPECT_FALSE(q.push(2, 2)) << "woken by close, not space";
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load()) << "push must block while full";
    q.close();
    producer.join();
    EXPECT_TRUE(returned.load());
}

TEST(LaneQueue, ConsumerBlockedOnHeldLaneWakesOnFinish)
{
    // The only queued element's lane is held: a consumer must wait —
    // even after close() — and wake when finishLane releases it (the
    // shutdown-drain path of the service).
    LaneQueue<int> q(4);
    ASSERT_TRUE(q.push(1, 10));
    ASSERT_TRUE(q.push(1, 11));
    auto first = q.pop();
    ASSERT_TRUE(first.has_value());
    q.close();

    std::atomic<bool> got{false};
    std::thread consumer([&] {
        auto p = q.pop();
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->value, 11);
        got.store(true);
        q.finishLane(p->lane);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(got.load()) << "lane still held";
    q.finishLane(1);
    consumer.join();
    EXPECT_TRUE(got.load());
    EXPECT_FALSE(q.pop().has_value());
}

TEST(LaneQueue, PeakDepthAndExactBound)
{
    LaneQueue<int> q(3);
    EXPECT_EQ(q.capacity(), 3u);
    ASSERT_TRUE(q.push(1, 1));
    ASSERT_TRUE(q.push(2, 2));
    ASSERT_TRUE(q.push(3, 3));
    EXPECT_EQ(q.peakDepth(), 3u);
    // Draining does not lower the peak.
    for (int i = 0; i < 3; ++i) {
        auto p = q.pop();
        ASSERT_TRUE(p.has_value());
        q.finishLane(p->lane);
    }
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.peakDepth(), 3u);
}

TEST(LaneQueue, FinishUnknownLaneThrows)
{
    LaneQueue<int> q(2);
    EXPECT_THROW(q.finishLane(99), std::logic_error);
}

TEST(LaneQueue, StressDeliversEachOnceInLaneOrderExclusively)
{
    // The full service contract under contention: several producers
    // push per-lane sequences while four consumers pop. Every element
    // must arrive exactly once, per-lane in push order, and no lane
    // may ever be held by two consumers at once.
    const int kConsumers = 4;
    const int kLanes = 8;
    const int kPerLane = 200;
    LaneQueue<std::pair<int, int>> q(4, kConsumers);

    std::vector<std::atomic<int>> laneBusy(kLanes);
    std::vector<std::atomic<int>> laneNext(kLanes);
    for (int l = 0; l < kLanes; ++l) {
        laneBusy[l].store(0);
        laneNext[l].store(0);
    }
    std::atomic<int> delivered{0};
    std::atomic<int> violations{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (auto p = q.pop()) {
                const int lane = p->value.first;
                const int seq = p->value.second;
                if (laneBusy[lane].fetch_add(1) != 0)
                    ++violations;  // two holders of one lane
                if (laneNext[lane].fetch_add(1) != seq)
                    ++violations;  // out of lane order
                std::this_thread::yield();
                laneBusy[lane].fetch_sub(1);
                ++delivered;
                q.finishLane(p->lane);
            }
        });
    }

    std::vector<std::thread> producers;
    for (int l = 0; l < kLanes; ++l) {
        producers.emplace_back([&, l] {
            for (int i = 0; i < kPerLane; ++i)
                ASSERT_TRUE(
                    q.push(static_cast<std::uint64_t>(l), {l, i}));
        });
    }
    for (auto &t : producers)
        t.join();
    q.close();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(delivered.load(), kLanes * kPerLane);
    EXPECT_EQ(violations.load(), 0);
    EXPECT_LE(q.peakDepth(), q.capacity());
    for (int l = 0; l < kLanes; ++l)
        EXPECT_EQ(laneNext[l].load(), kPerLane);
}

} // namespace
} // namespace pce
