/**
 * @file
 * Concurrent dispatch: N dispatchers popping the one lane-exclusive
 * request queue. A seeded property test checks byte-identity vs
 * single-shot encode, per-stream FIFO and exactly-once collect across
 * drawn thread, dispatcher, depth, queue-bound and gaze/static
 * combinations; then per-stream FIFO across dispatchers, no
 * starvation behind a parked dispatcher, the exact queue bound, the
 * lane-migration count, shutdown waking and draining every stream, and
 * the per-dispatcher report counters.
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

#include "common/rng.hh"
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

DisplayGeometry
geometry(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = 100.0;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return g;
}

EccentricityMap
centeredMap(int w, int h)
{
    return EccentricityMap(geometry(w, h));
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

/** A gate dispatchers block on inside preEncodeFaultHook. */
struct EncodeGate
{
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
    int entered = 0;

    void wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        ++entered;
        cv.notify_all();
        cv.wait(lock, [&] { return open; });
    }

    /** Block until @p count dispatchers have entered wait(). */
    void awaitEntered(int count = 1)
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return entered >= count; });
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

TEST(ShardedService, SeededPropertyByteIdentityFifoExactlyOnce)
{
    // The invariant every dispatch change must keep: the service adds
    // scheduling, never changes bytes. Each trial draws a service
    // shape and a gaze/static stream mix, runs one producer thread per
    // stream, and checks every collected frame against a single-shot
    // reference at its submission index (a reorder is a mismatch at a
    // known index). Exactly-once: each stream collects exactly its
    // submissions, nothing more is ever ready, and the dispatchers
    // encoded each frame once.
    const int n = 32;
    constexpr int kFrames = 5;
    constexpr int kTrials = 12;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    const SceneId scenes[4] = {SceneId::Office, SceneId::Fortnite,
                               SceneId::Monkey, SceneId::Thai};

    // Per scene: frames, the static reference, the gaze samples and
    // the gaze reference (a fresh gaze state through the same
    // samples, as a new stream starts).
    struct Clip
    {
        std::vector<ImageF> frames;
        std::vector<std::vector<uint8_t>> staticRef;
        std::vector<GazeSample> gaze;
        std::vector<std::vector<uint8_t>> gazeRef;
    };
    std::vector<Clip> clips(4);
    PipelineParams pp;
    pp.threads = 1;
    const PerceptualEncoder ref(model(), pp);
    for (int c = 0; c < 4; ++c) {
        Clip &clip = clips[c];
        for (int i = 0; i < kFrames; ++i) {
            clip.frames.push_back(renderScene(
                scenes[c], {n, n, i % 2, 0.1 * i + 0.05 * c, 0}));
            GazeSample gs;
            gs.timeSeconds = 0.011 * i;
            gs.x = n / 2.0 + 1.5 * i - c;
            gs.y = n / 2.0 - 0.7 * i + c;
            clip.gaze.push_back(gs);
        }
        clip.staticRef = referenceStreams(clip.frames, ecc);
        GazeTrackedEccentricity state(geom);
        EncodedFrame scratch;
        for (int i = 0; i < kFrames; ++i) {
            ref.encodeFrameGazeInto(clip.frames[i], state, clip.gaze[i],
                                    scratch);
            clip.gazeRef.push_back(scratch.bdStream);
        }
    }

    Rng rng(0x5eed17);
    int gazeStreams = 0, staticStreams = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        ServiceParams sp;
        sp.threads = 1 + static_cast<int>(rng.uniformInt(4));
        sp.shards = 1 + rng.uniformInt(4);
        sp.streamDepth = 1 + static_cast<int>(rng.uniformInt(3));
        sp.queueCapacity = 1 + rng.uniformInt(8);
        const int streams = 2 + static_cast<int>(rng.uniformInt(3));
        std::vector<bool> gazed(streams);
        for (int s = 0; s < streams; ++s) {
            gazed[s] = rng.uniformInt(2) == 1;
            ++(gazed[s] ? gazeStreams : staticStreams);
        }
        std::string shape = "trial " + std::to_string(trial) +
                            ": threads " + std::to_string(sp.threads) +
                            ", shards " + std::to_string(sp.shards) +
                            ", depth " + std::to_string(sp.streamDepth) +
                            ", queue " + std::to_string(sp.queueCapacity) +
                            ", streams";
        for (int s = 0; s < streams; ++s)
            shape += gazed[s] ? " gaze" : " static";
        SCOPED_TRACE(shape);

        EncodeService svc(model(), sp);
        std::vector<StreamHandle> handles;
        for (int s = 0; s < streams; ++s)
            handles.push_back(
                gazed[s] ? svc.openGazeStream("s" + std::to_string(s),
                                              geom)
                         : svc.openStream("s" + std::to_string(s), ecc));

        std::vector<int> mismatches(streams, 0);
        std::vector<int> extra(streams, 0);
        std::vector<std::thread> producers;
        for (int s = 0; s < streams; ++s) {
            producers.emplace_back([&, s] {
                const Clip &clip = clips[s % 4];
                const auto &want =
                    gazed[s] ? clip.gazeRef : clip.staticRef;
                int collected = 0;
                auto collectOne = [&] {
                    const FrameLease lease = svc.collect(handles[s]);
                    if (lease->bdStream != want[collected])
                        ++mismatches[s];
                    ++collected;
                };
                for (int i = 0; i < kFrames; ++i) {
                    // Every slot in flight: a submit would wait for a
                    // lease only this producer can drop.
                    if (i - collected == sp.streamDepth)
                        collectOne();
                    if (gazed[s])
                        svc.submit(handles[s], clip.frames[i],
                                   clip.gaze[i]);
                    else
                        svc.submit(handles[s], clip.frames[i]);
                }
                while (collected < kFrames)
                    collectOne();
                if (svc.tryCollect(handles[s]).valid())
                    ++extra[s];
            });
        }
        for (auto &t : producers)
            t.join();
        svc.drainAll();

        const ServiceReport rep = svc.report();
        ASSERT_EQ(rep.shards.size(), sp.shards);
        std::uint64_t byShard = 0;
        for (const ShardStats &sh : rep.shards)
            byShard += sh.framesEncoded;
        EXPECT_EQ(byShard, static_cast<std::uint64_t>(streams) * kFrames);
        EXPECT_EQ(rep.queueCapacity, sp.queueCapacity);
        EXPECT_LE(rep.queuePeakDepth, sp.queueCapacity);
        if (sp.shards == 1)
            EXPECT_EQ(rep.stolenFrames, 0u);
        ASSERT_EQ(rep.streams.size(), static_cast<std::size_t>(streams));
        for (int s = 0; s < streams; ++s) {
            EXPECT_EQ(mismatches[s], 0) << "stream " << s;
            EXPECT_EQ(extra[s], 0) << "stream " << s;
            const StreamStats &st = rep.streams[s];
            EXPECT_EQ(st.framesSubmitted, kFrames) << "stream " << s;
            EXPECT_EQ(st.framesEncoded, kFrames) << "stream " << s;
            EXPECT_EQ(st.framesCollected, kFrames) << "stream " << s;
        }
    }
    EXPECT_GT(gazeStreams, 0) << "the seed must draw both stream kinds";
    EXPECT_GT(staticStreams, 0) << "the seed must draw both stream kinds";
}

TEST(ShardedService, PerStreamFifoHoldsWhenFramesCrossShards)
{
    // One stream under four dispatchers: its frames may be encoded by
    // any mix of dispatchers, but the lane protocol must keep hand-out
    // (and therefore collect) in submission order. Distinct frames
    // make any reorder a byte mismatch at a known index.
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
    StreamHandle stream = svc.openStream("stream", ecc);

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
    EXPECT_EQ(rep.streams[0].framesEncoded, kFrames);
}

TEST(ShardedService, ParkedDispatcherNeverStarvesOtherStreams)
{
    // Four streams, four dispatchers. The first frame to reach a
    // dispatcher parks it in the gate; the other three streams' frames
    // queue behind it and must be taken by the idle dispatchers.
    // collectFor with a generous deadline fails loudly (instead of
    // hanging the suite) if they starve.
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

    std::vector<StreamHandle> handles;
    for (int s = 0; s < 4; ++s)
        handles.push_back(svc.openStream("stream-" + std::to_string(s),
                                         ecc));

    // First submission parks whichever dispatcher grabs it.
    svc.submit(handles[0], frame);
    gate.awaitEntered();
    for (int s = 1; s < 4; ++s)
        svc.submit(handles[s], frame);

    for (int s = 1; s < 4; ++s) {
        FrameLease lease = svc.collectFor(handles[s], 30000ms);
        ASSERT_TRUE(lease.valid())
            << "stream " << s << " starved behind the parked "
            << "dispatcher";
        EXPECT_FALSE(lease->bdStream.empty());
    }
    EXPECT_EQ(gated, "stream-0");

    gate.release();
    FrameLease lease = svc.collectFor(handles[0], 30000ms);
    ASSERT_TRUE(lease.valid());
    EXPECT_FALSE(lease->bdStream.empty());

    svc.drainAll();
    const ServiceReport rep = svc.report();
    std::uint64_t encoded = 0;
    for (const ShardStats &sh : rep.shards)
        encoded += sh.framesEncoded;
    EXPECT_EQ(encoded, 4u) << "each frame encoded exactly once";
}

TEST(ShardedService, QueueBoundIsExactAcrossDispatchers)
{
    // The configured bound is the bound, whatever the dispatcher
    // count. Park all three dispatchers, fill the queue from more
    // streams than it holds, and check that the extra submitters
    // block instead of overfilling it.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    EncodeGate gate;
    ServiceParams sp;
    sp.shards = 3;
    sp.threads = 3;
    sp.queueCapacity = 4;
    sp.preEncodeFaultHook = [&](const std::string &, std::uint64_t,
                                ImageF &) { gate.wait(); };
    EncodeService svc(model(), sp);
    ASSERT_EQ(svc.report().queueCapacity, 4u);

    constexpr int kParked = 3, kQueued = 4, kBlocked = 3;
    std::vector<StreamHandle> handles;
    for (int s = 0; s < kParked + kQueued + kBlocked; ++s)
        handles.push_back(svc.openStream("stream-" + std::to_string(s),
                                         ecc));
    for (int s = 0; s < kParked; ++s)
        svc.submit(handles[s], frame);
    gate.awaitEntered(kParked);
    for (int s = kParked; s < kParked + kQueued; ++s)
        svc.submit(handles[s], frame);
    EXPECT_EQ(svc.report().queuedRequests, 4u);

    std::atomic<int> returned{0};
    std::vector<std::thread> blocked;
    for (int s = kParked + kQueued; s < kParked + kQueued + kBlocked;
         ++s)
        blocked.emplace_back([&, s] {
            svc.submit(handles[s], frame);
            returned.fetch_add(1);
        });
    // Give a broken bound the chance to show; a correct one keeps
    // every extra submitter blocked.
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(returned.load(), 0) << "submit must block while full";
    EXPECT_EQ(svc.report().queuedRequests, 4u);

    gate.release();
    for (auto &t : blocked)
        t.join();
    for (StreamHandle &h : handles)
        EXPECT_FALSE(svc.collect(h)->bdStream.empty());

    const ServiceReport rep = svc.report();
    EXPECT_EQ(rep.queueCapacity, 4u);
    EXPECT_EQ(rep.queuePeakDepth, 4u);
    EXPECT_LE(rep.queuePeakDepth, rep.queueCapacity);
}

TEST(ShardedService, LaneMigrationsCountDispatcherChanges)
{
    // stolenFrames counts frames encoded on a different dispatcher
    // than the stream's previous frame. Force one: park dispatcher X
    // (stream b), so stream a's first frame runs on Y; park Y (stream
    // c) and free X, so a's second frame must run on X.
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    EncodeGate gateB, gateC;
    ServiceParams sp;
    sp.shards = 2;
    sp.preEncodeFaultHook = [&](const std::string &name, std::uint64_t,
                                ImageF &) {
        if (name == "b")
            gateB.wait();
        else if (name == "c")
            gateC.wait();
    };
    EncodeService svc(model(), sp);
    StreamHandle a = svc.openStream("a", ecc);
    StreamHandle b = svc.openStream("b", ecc);
    StreamHandle c = svc.openStream("c", ecc);

    svc.submit(b, frame);
    gateB.awaitEntered();          // X parked
    svc.submit(a, frame);          // only Y is free
    svc.collect(a).release();
    EXPECT_EQ(svc.report().stolenFrames, 0u) << "a stream's first frame";
    svc.submit(c, frame);
    gateC.awaitEntered();          // Y parked
    gateB.release();               // X free again
    svc.submit(a, frame);          // only X is free
    svc.collect(a).release();
    gateC.release();
    svc.collect(b).release();
    svc.collect(c).release();
    svc.drainAll();
    EXPECT_EQ(svc.report().stolenFrames, 1u);

    // One dispatcher: every frame stays on it.
    ServiceParams one;
    one.shards = 1;
    EncodeService solo(model(), one);
    StreamHandle x = solo.openStream("x", ecc);
    StreamHandle y = solo.openStream("y", ecc);
    for (int i = 0; i < 4; ++i) {
        solo.submit(x, frame);
        solo.submit(y, frame);
        solo.collect(x).release();
        solo.collect(y).release();
    }
    EXPECT_EQ(solo.report().stolenFrames, 0u);
}

TEST(ShardedService, ShutdownWakesEveryBackpressuredProducer)
{
    // Four streams under four dispatchers, each with streamDepth 1 and
    // its slot leased out, each with a producer blocked in per-stream
    // backpressure. shutdown() must wake all of them with an error.
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
        handles.push_back(
            svc.openStream("stream-" + std::to_string(s), ecc));
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

TEST(ShardedService, ReportExposesShardCounters)
{
    const int n = 32;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});

    ServiceParams sp;
    sp.shards = 2;
    sp.threads = 4;  // split 2+2: each dispatcher gets a 1-worker pool
    sp.queueCapacity = 64;
    EncodeService svc(model(), sp);

    std::vector<StreamHandle> handles;
    handles.push_back(svc.openStream("stream-0", ecc));
    handles.push_back(svc.openStream("stream-1", ecc));
    // Either idle dispatcher may take any frame, and with one frame in
    // flight at a time the same dispatcher can win every hand-off for
    // a long run. So keep submitting round-robin until every
    // dispatcher has encoded something, under a cap that turns one
    // which never gets work into a failure, not a hang.
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
            << "a dispatcher encoded nothing in " << max_frames
            << " frames";
        for (StreamHandle &h : handles) {
            svc.submit(h, frame);
            svc.collect(h).release();
            ++submitted;
        }
    }
    svc.drainAll();

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.shards.size(), 2u);
    EXPECT_EQ(rep.queueCapacity, sp.queueCapacity);
    EXPECT_GE(rep.queuePeakDepth, 1u);
    EXPECT_LE(rep.queuePeakDepth, rep.queueCapacity);
    EXPECT_EQ(rep.queuedRequests, 0u) << "drained";
    std::uint64_t encoded = 0;
    for (const ShardStats &sh : rep.shards) {
        EXPECT_EQ(sh.participants, 2);
        EXPECT_GT(sh.poolDispatches, 0u);
        EXPECT_GT(sh.poolMeanParticipants, 1.0);
        EXPECT_LE(sh.poolMeanParticipants, 2.0);
        EXPECT_GT(sh.busySeconds, 0.0);
        EXPECT_GE(sh.occupancy, 0.0);
        encoded += sh.framesEncoded;
    }
    EXPECT_EQ(encoded, rep.framesEncoded);
    EXPECT_EQ(rep.framesEncoded, submitted);
    EXPECT_LE(rep.stolenFrames, rep.framesEncoded);
}

TEST(ShardedService, InvalidShardParamsThrow)
{
    ServiceParams bad;
    bad.shards = 0;
    EXPECT_THROW(EncodeService svc(model(), bad),
                 std::invalid_argument);
}

TEST(ShardedService, ShutdownFinishesQueuedWorkOfEveryStream)
{
    // Queued-but-unencoded requests of every stream at shutdown time
    // must all be finished, not dropped (the drain half of the close
    // protocol).
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
            svc.openStream("stream-" + std::to_string(s), ecc));
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
