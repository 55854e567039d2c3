/**
 * @file
 * Sharded dispatch: the correctness bar of the shard/steal refactor.
 * Byte-identity vs single-shot encode across shards x threads x
 * streams, per-stream FIFO under stealing, starvation-free stealing
 * when a dispatcher parks, shutdown waking backpressured producers on
 * every shard, gaze streams across shard counts, and the per-shard
 * report counters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/encode_service.hh"

namespace pce {
namespace {

using namespace std::chrono_literals;

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

EccentricityMap
centeredMap(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return EccentricityMap(g);
}

/** Single-shot reference: the exact frames a stream should produce. */
std::vector<std::vector<uint8_t>>
referenceStreams(const std::vector<ImageF> &frames,
                 const EccentricityMap &ecc)
{
    PipelineParams p;
    p.threads = 1;
    const PerceptualEncoder enc(model(), p);
    std::vector<std::vector<uint8_t>> out;
    EncodedFrame scratch;
    for (const ImageF &f : frames) {
        enc.encodeFrameInto(f, ecc, scratch);
        out.push_back(scratch.bdStream);
    }
    return out;
}

/** @p count stream names whose home shard is @p shard. */
std::vector<std::string>
namesHomedTo(std::size_t shard, std::size_t shards, std::size_t count)
{
    std::vector<std::string> out;
    for (int i = 0; out.size() < count && i < 100000; ++i) {
        std::string name = "stream-" + std::to_string(i);
        if (EncodeService::shardForName(name, shards) == shard)
            out.push_back(std::move(name));
    }
    EXPECT_EQ(out.size(), count) << "hash never hit shard " << shard;
    return out;
}

/** A gate a dispatcher blocks on inside preEncodeFaultHook. */
struct EncodeGate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    bool entered = false;

    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return open; });
    }

    void awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return entered; });
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            open = true;
        }
        cv.notify_all();
    }
};

TEST(ShardedService, ByteIdenticalAcrossShardThreadStreamCombos)
{
    // The tentpole invariant: sharding and stealing add scheduling,
    // never change bytes. Three concurrent producer streams, swept
    // over shard and thread counts, all compared against single-shot
    // references.
    const int n = 48;
    const EccentricityMap ecc = centeredMap(n, n);
    const SceneId scenes[3] = {SceneId::Office, SceneId::Fortnite,
                               SceneId::Monkey};
    constexpr int kFrames = 4;

    std::vector<std::vector<ImageF>> frames(3);
    std::vector<std::vector<std::vector<uint8_t>>> reference(3);
    for (int s = 0; s < 3; ++s) {
        for (int i = 0; i < kFrames; ++i)
            frames[s].push_back(renderScene(
                scenes[s], {n, n, 0, 0.1 * i + 0.05 * s, 0}));
        reference[s] = referenceStreams(frames[s], ecc);
    }

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
        for (const int threads : {1, 4}) {
            ServiceParams sp;
            sp.shards = shards;
            sp.threads = threads;
            sp.queueCapacity = 8;
            sp.streamDepth = 2;
            EncodeService svc(model(), sp);

            std::vector<StreamHandle> handles;
            for (int s = 0; s < 3; ++s)
                handles.push_back(
                    svc.openStream(sceneName(scenes[s]), ecc));

            std::atomic<int> mismatches{0};
            std::vector<std::thread> producers;
            for (int s = 0; s < 3; ++s) {
                producers.emplace_back([&, s] {
                    int collected = 0;
                    for (int i = 0; i < kFrames; ++i) {
                        svc.submit(handles[s], frames[s][i]);
                        if (i - collected >= 1) {
                            const FrameLease lease =
                                svc.collect(handles[s]);
                            if (lease->bdStream !=
                                reference[s][collected])
                                mismatches.fetch_add(1);
                            ++collected;
                        }
                    }
                    while (collected < kFrames) {
                        const FrameLease lease =
                            svc.collect(handles[s]);
                        if (lease->bdStream !=
                            reference[s][collected])
                            mismatches.fetch_add(1);
                        ++collected;
                    }
                });
            }
            for (auto &t : producers)
                t.join();
            EXPECT_EQ(mismatches.load(), 0)
                << shards << " shards, " << threads << " threads";

            const ServiceReport rep = svc.report();
            ASSERT_EQ(rep.shards.size(), shards);
            std::uint64_t byShard = 0;
            for (const ShardStats &sh : rep.shards)
                byShard += sh.framesEncoded;
            EXPECT_EQ(byShard, 3u * kFrames)
                << "every frame is encoded by exactly one shard";
        }
    }
}

TEST(ShardedService, PerStreamFifoHoldsWhenFramesCrossShards)
{
    // One stream homed to shard 0 under four dispatchers: its frames
    // may be encoded by any mix of home and thief shards, but the
    // lane protocol must keep hand-out (and therefore collect) in
    // submission order. Distinct frames make any reorder a byte
    // mismatch at a known index.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    constexpr int kFrames = 10;
    std::vector<ImageF> frames;
    for (int i = 0; i < kFrames; ++i)
        frames.push_back(
            renderScene(SceneId::Office, {n, n, i % 2, 0.2 * i, 0}));
    const auto reference = referenceStreams(frames, ecc);

    ServiceParams sp;
    sp.shards = 4;
    sp.threads = 1;
    sp.streamDepth = 4;
    EncodeService svc(model(), sp);
    const std::string name = namesHomedTo(0, sp.shards, 1)[0];
    StreamHandle stream = svc.openStream(name, ecc);

    int collected = 0;
    for (int i = 0; i < kFrames; ++i) {
        svc.submit(stream, frames[i]);
        if (i - collected >= 3) {
            const FrameLease lease = svc.collect(stream);
            EXPECT_EQ(lease->bdStream, reference[collected])
                << "frame " << collected << " out of order";
            ++collected;
        }
    }
    while (collected < kFrames) {
        const FrameLease lease = svc.collect(stream);
        EXPECT_EQ(lease->bdStream, reference[collected])
            << "frame " << collected << " out of order";
        ++collected;
    }

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.streams.size(), 1u);
    EXPECT_EQ(rep.streams[0].shard,
              EncodeService::shardForName(name, sp.shards));
    EXPECT_EQ(rep.streams[0].framesEncoded, kFrames);
}

TEST(ShardedService, StealingKeepsCohomedStreamsStarvationFree)
{
    // Four streams all homed to shard 0, four dispatchers. The first
    // frame to reach a dispatcher parks it in the gate; the other
    // three streams are queued behind it on the same ring and can
    // only proceed if other shards steal them. collectFor with a
    // generous deadline fails loudly (instead of hanging the suite)
    // if stealing starves them.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    EncodeGate gate;
    std::string gated;  // written once before gate.entered flips
    ServiceParams sp;
    sp.shards = 4;
    sp.threads = 1;
    sp.queueCapacity = 16;
    // The hook parks exactly the first dispatcher that picks up
    // work; later frames pass through.
    std::atomic<bool> firstTaken{false};
    sp.preEncodeFaultHook = [&](const std::string &name,
                                std::uint64_t, ImageF &) {
        if (!firstTaken.exchange(true)) {
            gated = name;
            gate.wait();
        }
    };
    EncodeService svc(model(), sp);

    const std::vector<std::string> names = namesHomedTo(0, sp.shards, 4);
    std::vector<StreamHandle> handles;
    for (const std::string &name : names)
        handles.push_back(svc.openStream(name, ecc));

    // First submission parks whichever dispatcher grabs it.
    svc.submit(handles[0], frame);
    gate.awaitEntered();
    for (int s = 1; s < 4; ++s)
        svc.submit(handles[s], frame);

    // The three later streams must complete while the holder of the
    // first frame is parked — only possible via hand-off to other
    // shards (the home dispatcher is parked, or was bypassed by a
    // thief, in which case the home dispatcher drains).
    for (int s = 1; s < 4; ++s) {
        FrameLease lease = svc.collectFor(handles[s], 30000ms);
        ASSERT_TRUE(lease.valid())
            << "stream " << names[s] << " starved behind the parked "
            << "dispatcher (stealing failed)";
        EXPECT_FALSE(lease->bdStream.empty());
    }

    ServiceReport rep = svc.report();
    EXPECT_GE(rep.stolenFrames, 1u)
        << "a parked home dispatcher implies at least one steal";
    EXPECT_EQ(gated, names[0]);

    gate.release();
    FrameLease lease = svc.collectFor(handles[0], 30000ms);
    ASSERT_TRUE(lease.valid());
    EXPECT_FALSE(lease->bdStream.empty());

    // Counter cross-checks after quiescence.
    svc.drainAll();
    rep = svc.report();
    std::uint64_t stealsBy = 0;
    std::uint64_t stolenFrom = 0;
    std::uint64_t queued = 0;
    for (const ShardStats &sh : rep.shards) {
        stealsBy += sh.framesStolen;
        stolenFrom += sh.framesStolenFrom;
        queued += sh.framesQueued;
    }
    EXPECT_EQ(stealsBy, stolenFrom);
    EXPECT_EQ(stealsBy, rep.stolenFrames);
    EXPECT_EQ(queued, 4u) << "all four requests homed to shard 0";
    EXPECT_EQ(rep.shards[0].framesQueued, 4u);
    std::uint64_t streamStolen = 0;
    for (const StreamStats &st : rep.streams) {
        EXPECT_EQ(st.shard, 0u);
        streamStolen += st.framesStolen;
    }
    EXPECT_EQ(streamStolen, rep.stolenFrames);
}

TEST(ShardedService, ShutdownWakesBackpressuredProducersOnEveryShard)
{
    // One stream per shard, each with streamDepth 1 and its slot
    // leased out, each with a producer blocked in per-stream
    // backpressure. shutdown() must wake all of them with an error —
    // no shard's waiters may be missed.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    ServiceParams sp;
    sp.shards = 4;
    sp.streamDepth = 1;
    EncodeService svc(model(), sp);

    std::vector<StreamHandle> handles;
    for (std::size_t s = 0; s < sp.shards; ++s) {
        const std::string name = namesHomedTo(s, sp.shards, 1)[0];
        EXPECT_EQ(EncodeService::shardForName(name, sp.shards), s);
        handles.push_back(svc.openStream(name, ecc));
        svc.submit(handles.back(), frame);
    }

    std::atomic<int> woken{0};
    std::vector<std::thread> producers;
    for (std::size_t s = 0; s < sp.shards; ++s) {
        producers.emplace_back([&, s] {
            try {
                // Slot still leased out (nothing collected): blocks
                // in this stream's per-slot backpressure until
                // shutdown wakes it.
                svc.submit(handles[s], frame);
                svc.submit(handles[s], frame);
            } catch (const std::runtime_error &) {
                woken.fetch_add(1);
            }
        });
    }
    std::this_thread::sleep_for(50ms);
    svc.shutdown();
    for (auto &t : producers)
        t.join();
    EXPECT_EQ(woken.load(), 4);
}

TEST(ShardedService, GazeStreamsByteIdenticalAcrossShardCounts)
{
    // A gaze stream owns mutable per-stream eccentricity state; the
    // lane protocol hands it between dispatchers. Identical gaze
    // traces through 1-shard and 3-shard services must produce
    // identical bytes (the 1-shard service is the config the gaze
    // suite already proves against direct encodes).
    const int n = 48;
    DisplayGeometry geom;
    geom.width = n;
    geom.height = n;
    geom.horizontalFovDeg = 100.0;
    geom.fixationX = n / 2.0;
    geom.fixationY = n / 2.0;

    constexpr int kFrames = 6;
    std::vector<ImageF> frames;
    std::vector<GazeSample> samples;
    for (int i = 0; i < kFrames; ++i) {
        frames.push_back(
            renderScene(SceneId::Office, {n, n, 0, 0.15 * i, 0}));
        GazeSample gs;
        gs.timeSeconds = 0.011 * i;
        gs.x = n / 2.0 + 1.5 * i;
        gs.y = n / 2.0 - 0.7 * i;
        samples.push_back(gs);
    }

    auto runService = [&](std::size_t shards) {
        ServiceParams sp;
        sp.shards = shards;
        EncodeService svc(model(), sp);
        StreamHandle stream = svc.openGazeStream("gaze", geom);
        std::vector<std::vector<uint8_t>> out;
        for (int i = 0; i < kFrames; ++i) {
            svc.submit(stream, frames[i], samples[i]);
            const FrameLease lease = svc.collect(stream);
            out.push_back(lease->bdStream);
        }
        return out;
    };

    const auto one = runService(1);
    const auto three = runService(3);
    ASSERT_EQ(one.size(), three.size());
    for (int i = 0; i < kFrames; ++i)
        EXPECT_EQ(one[i], three[i]) << "gaze frame " << i;
}

TEST(ShardedService, ReportExposesShardCountersAndCapacities)
{
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    ServiceParams sp;
    sp.shards = 2;
    sp.threads = 4;  // split 2+2: each shard gets a 1-worker pool
    sp.queueCapacity = 64;
    EncodeService svc(model(), sp);

    std::vector<StreamHandle> handles;
    handles.push_back(
        svc.openStream(namesHomedTo(0, sp.shards, 1)[0], ecc));
    handles.push_back(
        svc.openStream(namesHomedTo(1, sp.shards, 1)[0], ecc));
    // Either idle dispatcher may take (steal) any frame, and with one
    // frame in flight at a time the same dispatcher can win every
    // hand-off for a long run. So keep submitting round-robin until
    // every shard has encoded something, under a cap that turns a
    // shard which never gets work into a failure, not a hang.
    const int max_frames = 1000;
    std::uint64_t submitted = 0;
    auto everyShardEncoded = [&svc] {
        for (const ShardStats &sh : svc.report().shards)
            if (sh.framesEncoded == 0)
                return false;
        return true;
    };
    while (!everyShardEncoded()) {
        ASSERT_LT(submitted, static_cast<std::uint64_t>(max_frames))
            << "a shard encoded nothing in " << max_frames << " frames";
        for (StreamHandle &h : handles) {
            svc.submit(h, frame);
            svc.collect(h).release();
            ++submitted;
        }
    }
    svc.drainAll();

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_EQ(rep.queueCapacity, sp.queueCapacity)
        << "shards divide queueCapacity evenly here";
    EXPECT_GE(rep.queuePeakDepth, 1u);
    EXPECT_LE(rep.queuePeakDepth, rep.queueCapacity);
    std::uint64_t encoded = 0;
    for (const ShardStats &sh : rep.shards) {
        EXPECT_EQ(sh.queueCapacity, sp.queueCapacity / sp.shards);
        EXPECT_GE(sh.queuePeakDepth, 1u) << "both shards saw work";
        EXPECT_LE(sh.queuePeakDepth, sh.queueCapacity);
        EXPECT_EQ(sh.queueDepth, 0u) << "drained";
        EXPECT_EQ(sh.participants, 2);
        EXPECT_GT(sh.poolDispatches, 0u);
        EXPECT_GT(sh.poolMeanParticipants, 1.0);
        EXPECT_LE(sh.poolMeanParticipants, 2.0);
        EXPECT_GT(sh.busySeconds, 0.0);
        EXPECT_GE(sh.occupancy, 0.0);
        EXPECT_EQ(sh.streamsHomed, 1u);
        encoded += sh.framesEncoded;
    }
    EXPECT_EQ(encoded, rep.framesEncoded);
    EXPECT_EQ(rep.framesEncoded, submitted);
}

TEST(ShardedService, InvalidShardParamsThrow)
{
    ServiceParams bad;
    bad.shards = 0;
    EXPECT_THROW(EncodeService svc(model(), bad),
                 std::invalid_argument);
}

TEST(ShardedService, ShutdownFinishesQueuedWorkOnAllShards)
{
    // Queued-but-unencoded requests on every shard at shutdown time
    // must all be finished, not dropped (the drain half of the
    // close protocol, sharded edition).
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    ServiceParams sp;
    sp.shards = 3;
    sp.streamDepth = 4;
    EncodeService svc(model(), sp);
    std::vector<StreamHandle> handles;
    for (std::size_t s = 0; s < sp.shards; ++s) {
        handles.push_back(
            svc.openStream(namesHomedTo(s, sp.shards, 1)[0], ecc));
        for (int i = 0; i < 4; ++i)
            svc.submit(handles.back(), frame);
    }
    svc.shutdown();
    for (StreamHandle &h : handles)
        for (int i = 0; i < 4; ++i) {
            const FrameLease lease = svc.collect(h);
            EXPECT_FALSE(lease->bdStream.empty());
        }
}

} // namespace
} // namespace pce
