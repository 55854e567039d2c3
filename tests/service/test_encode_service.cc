/**
 * @file
 * EncodeService: byte-identity with the single-shot encodeFrameInto
 * path, per-stream buffer pinning and input-copy reuse (zero
 * steady-state allocations),
 * concurrent stream interleaving, backpressure, drain/shutdown with
 * in-flight work, and the stats report.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "service/encode_service.hh"

namespace pce {
namespace {

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
                 const EccentricityMap &ecc, int threads)
{
    PipelineParams p;
    p.threads = threads;
    const PerceptualEncoder enc(model(), p);
    std::vector<std::vector<uint8_t>> out;
    EncodedFrame scratch;
    for (const ImageF &f : frames) {
        enc.encodeFrameInto(f, ecc, scratch);
        out.push_back(scratch.bdStream);
    }
    return out;
}

TEST(EncodeService, ByteIdenticalToSingleShotAcrossThreadCounts)
{
    const int n = 64;
    const EccentricityMap ecc = centeredMap(n, n);
    std::vector<ImageF> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(renderScene(
            SceneId::Office, {n, n, i % 2, 0.25 * i, 0}));

    const auto reference = referenceStreams(frames, ecc, 1);
    for (const int threads : {1, 4}) {
        ServiceParams sp;
        sp.threads = threads;
        EncodeService svc(model(), sp);
        StreamHandle stream = svc.openStream("office", ecc);
        for (std::size_t i = 0; i < frames.size(); ++i) {
            svc.submit(stream, frames[i]);
            const FrameLease lease = svc.collect(stream);
            EXPECT_EQ(lease->bdStream, reference[i])
                << "frame " << i << ", " << threads << " threads";
            EXPECT_GT(lease->stats.totalTiles, 0u);
        }
    }
}

TEST(EncodeService, StereoPairMatchesPerEyeReferences)
{
    const int n = 48;
    const EccentricityMap ecc = centeredMap(n, n);
    const StereoFrame pair = renderStereo(SceneId::Skyline, n, n, 0.5);
    const auto reference =
        referenceStreams({pair.left, pair.right}, ecc, 1);

    EncodeService svc(model(), {});
    StreamHandle stream = svc.openStream("skyline-stereo", ecc);
    svc.submitStereo(stream, pair);
    const FrameLease left = svc.collect(stream);
    EXPECT_EQ(left->bdStream, reference[0]);
    const FrameLease right = svc.collect(stream);
    EXPECT_EQ(right->bdStream, reference[1]);
}

TEST(EncodeService, SteadyStatePinsEveryPerStreamBuffer)
{
    // The acceptance test of the reuse design: after the first cycle
    // through a stream's slots, further frames must reuse the exact
    // same allocations — adjusted images, bitstreams, and the pooled
    // input copy (no new one is allocated).
    const int n = 64;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame = renderScene(SceneId::Dumbo, {n, n, 0, 0.0, 0});

    ServiceParams sp;
    sp.streamDepth = 2;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openStream("pinned", ecc);

    // Warm-up: cycle every slot once (depth=2) so buffers reach their
    // steady-state size, recording each slot's pointers.
    std::vector<const uint8_t *> stream_ptrs;
    std::vector<const uint8_t *> srgb_ptrs;
    std::vector<std::vector<uint8_t>> first_streams;
    for (int i = 0; i < 2; ++i) {
        svc.submit(stream, frame);
        const FrameLease lease = svc.collect(stream);
        stream_ptrs.push_back(lease->bdStream.data());
        srgb_ptrs.push_back(lease->adjustedSrgb.data().data());
        first_streams.push_back(lease->bdStream);
    }
    EXPECT_EQ(first_streams[0], first_streams[1]);
    // One frame in flight at a time: one input copy, reused.
    const ServiceReport warm = svc.report();
    EXPECT_EQ(warm.inputCopies, 1u);
    EXPECT_EQ(warm.inputCopyBytes,
              static_cast<std::uint64_t>(n) * n * sizeof(Vec3));

    // Steady state: many more frames; every lease must point into one
    // of the warm slots' pinned buffers and reproduce the stream.
    for (int i = 0; i < 8; ++i) {
        svc.submit(stream, frame);
        const FrameLease lease = svc.collect(stream);
        EXPECT_EQ(lease->bdStream, first_streams[0]) << "frame " << i;
        bool pinned = false;
        for (std::size_t s = 0; s < stream_ptrs.size(); ++s) {
            if (lease->bdStream.data() == stream_ptrs[s]) {
                EXPECT_EQ(lease->adjustedSrgb.data().data(),
                          srgb_ptrs[s]);
                pinned = true;
            }
        }
        EXPECT_TRUE(pinned)
            << "frame " << i << " was encoded into a fresh allocation";
    }
    const ServiceReport steady = svc.report();
    EXPECT_EQ(steady.inputCopies, warm.inputCopies);
    EXPECT_EQ(steady.inputCopyBytes, warm.inputCopyBytes);
    EXPECT_EQ(steady.framesEncoded, 10u);
}

TEST(EncodeService, ConcurrentStreamsInterleaveWithoutCrosstalk)
{
    // Three producer threads on three streams (different scenes and
    // phases), pipelined submit/collect: every stream must get exactly
    // its own frames back, byte-identical to single-shot encodes.
    const int n = 48;
    const EccentricityMap ecc = centeredMap(n, n);
    const SceneId scenes[3] = {SceneId::Office, SceneId::Fortnite,
                               SceneId::Monkey};
    constexpr int kFrames = 6;

    std::vector<std::vector<ImageF>> frames(3);
    std::vector<std::vector<std::vector<uint8_t>>> reference(3);
    for (int s = 0; s < 3; ++s) {
        for (int i = 0; i < kFrames; ++i)
            frames[s].push_back(renderScene(
                scenes[s], {n, n, 0, 0.1 * i + 0.05 * s, 0}));
        reference[s] = referenceStreams(frames[s], ecc, 1);
    }

    ServiceParams sp;
    sp.threads = 2;
    sp.queueCapacity = 3;  // small: cross-stream backpressure engages
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
                // Keep at most one frame in flight beyond this one.
                if (i - collected >= 1) {
                    const FrameLease lease = svc.collect(handles[s]);
                    if (lease->bdStream != reference[s][collected])
                        mismatches.fetch_add(1);
                    ++collected;
                }
            }
            while (collected < kFrames) {
                const FrameLease lease = svc.collect(handles[s]);
                if (lease->bdStream != reference[s][collected])
                    mismatches.fetch_add(1);
                ++collected;
            }
        });
    }
    for (auto &t : producers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.streams.size(), 3u);
    for (const StreamStats &st : rep.streams) {
        EXPECT_EQ(st.framesSubmitted, kFrames);
        EXPECT_EQ(st.framesEncoded, kFrames);
        EXPECT_EQ(st.framesCollected, kFrames);
        EXPECT_GT(st.megapixels, 0.0);
        EXPECT_GT(st.encodeMps, 0.0);
        EXPECT_GE(st.queueLatencyP99Ms, st.queueLatencyP50Ms);
        EXPECT_GE(st.queueLatencyMaxMs, st.queueLatencyP99Ms);
        EXPECT_EQ(st.latencySamples, kFrames);
    }
    EXPECT_EQ(rep.framesEncoded, 3u * kFrames);
}

TEST(EncodeService, DrainWaitsForEverySubmittedFrame)
{
    const int n = 48;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Thai, {n, n, 0, 0.0, 0});
    ServiceParams sp;
    sp.streamDepth = 3;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openStream("thai", ecc);
    for (int i = 0; i < 3; ++i)
        svc.submit(stream, frame);
    svc.drain(stream);
    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.streams.size(), 1u);
    EXPECT_EQ(rep.streams[0].framesEncoded, 3u);
    // All three results are still collectible after the drain.
    for (int i = 0; i < 3; ++i) {
        const FrameLease lease = svc.collect(stream);
        EXPECT_FALSE(lease->bdStream.empty());
    }
}

TEST(EncodeService, ShutdownFinishesInFlightWorkAndRefusesNew)
{
    const int n = 48;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    ServiceParams sp;
    sp.streamDepth = 4;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openStream("office", ecc);
    for (int i = 0; i < 4; ++i)
        svc.submit(stream, frame);
    svc.shutdown();  // must encode all four queued frames first
    EXPECT_THROW(svc.submit(stream, frame), std::runtime_error);
    EXPECT_THROW(svc.openStream("late", ecc), std::runtime_error);
    for (int i = 0; i < 4; ++i) {
        const FrameLease lease = svc.collect(stream);
        EXPECT_FALSE(lease->bdStream.empty()) << "frame " << i;
    }
    EXPECT_THROW(svc.collect(stream), std::logic_error);
    svc.shutdown();  // idempotent
}

TEST(EncodeService, ShutdownUnblocksBackpressuredProducer)
{
    // A producer stuck in per-stream backpressure (depth 1, nothing
    // collected) must be woken by shutdown with an error, not hang.
    const int n = 48;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    ServiceParams sp;
    sp.streamDepth = 1;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openStream("stuck", ecc);
    svc.submit(stream, frame);
    std::atomic<bool> threw{false};
    std::thread producer([&] {
        try {
            svc.submit(stream, frame);  // blocks: slot still leased out
            svc.submit(stream, frame);
        } catch (const std::runtime_error &) {
            threw.store(true);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    svc.shutdown();
    producer.join();
    EXPECT_TRUE(threw.load());
}

TEST(EncodeService, GeometryMismatchAndBadHandleAreRejected)
{
    const EccentricityMap ecc = centeredMap(48, 48);
    EncodeService svc(model(), {});
    StreamHandle stream = svc.openStream("geom", ecc);
    const ImageF wrong(32, 32);
    EXPECT_THROW(svc.submit(stream, wrong), std::invalid_argument);
    EXPECT_THROW(svc.submit(StreamHandle(), wrong),
                 std::invalid_argument);
    EXPECT_THROW(svc.collect(StreamHandle()), std::invalid_argument);
    EXPECT_THROW(svc.collect(stream), std::logic_error);
    EXPECT_EQ(StreamHandle().name(), "");
    EXPECT_EQ(stream.name(), "geom");
}

TEST(EncodeService, InvalidParamsThrow)
{
    ServiceParams bad_threads;
    bad_threads.threads = 0;
    EXPECT_THROW(EncodeService svc(model(), bad_threads),
                 std::invalid_argument);
    ServiceParams bad_depth;
    bad_depth.streamDepth = 0;
    EXPECT_THROW(EncodeService svc(model(), bad_depth),
                 std::invalid_argument);
    ServiceParams bad_queue;
    bad_queue.queueCapacity = 0;
    EXPECT_THROW(EncodeService svc(model(), bad_queue),
                 std::invalid_argument);
}

TEST(EncodeService, StereoOnSingleSlotStreamFailsInsteadOfDeadlocking)
{
    const EccentricityMap ecc = centeredMap(48, 48);
    ServiceParams sp;
    sp.streamDepth = 1;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openStream("mono", ecc);
    const StereoFrame pair = renderStereo(SceneId::Office, 48, 48);
    EXPECT_THROW(svc.submitStereo(stream, pair), std::logic_error);
}

} // namespace
} // namespace pce
