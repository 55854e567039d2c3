/**
 * @file
 * EncodeService gaze streams: per-frame gaze submission is
 * byte-identical to driving encodeFrameGazeInto directly, streams
 * re-fixate independently, per-frame round-trip verification and the
 * dispatcher-backlog metrics surface in the report, and the
 * gaze/static submit APIs reject mixed use.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
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

/** A small clip plus a 1 Hz scanpath with one saccade-speed jump. */
struct Workload
{
    std::vector<ImageF> frames;
    std::vector<GazeSample> gaze;
};

Workload
workload(SceneId scene, int n, int frame_count)
{
    Workload w;
    double t = 0.0;
    for (int i = 0; i < frame_count; ++i) {
        w.frames.push_back(
            renderScene(scene, {n, n, 0, 0.2 * i, 0}));
        // 1 s spacing keeps pixel-scale motion in fixation range on
        // the tiny test display; frame 3 jumps fast (a saccade).
        t += (i == 3) ? 0.004 : 1.0;
        const double x = n / 2.0 + (i % 4) + (i == 3 ? n / 3.0 : 0.0);
        const double y = n / 2.0 + ((i * 2) % 5);
        w.gaze.push_back({t, x, y});
    }
    return w;
}

TEST(GazeService, ByteIdenticalToDirectGazeEncode)
{
    const int n = 64;
    const DisplayGeometry geom = geometry(n, n);
    const Workload w = workload(SceneId::Office, n, 8);

    // Direct reference: one gaze state, one encoder, same samples.
    PipelineParams pp;
    const PerceptualEncoder enc(model(), pp);
    GazeTrackedEccentricity ref_gaze(geom);
    std::vector<std::vector<uint8_t>> reference;
    std::vector<bool> ref_saccade;
    EncodedFrame scratch;
    for (std::size_t i = 0; i < w.frames.size(); ++i) {
        const GazePhase phase = enc.encodeFrameGazeInto(
            w.frames[i], ref_gaze, w.gaze[i], scratch);
        reference.push_back(scratch.bdStream);
        ref_saccade.push_back(phase == GazePhase::Saccade);
    }
    ASSERT_TRUE(ref_saccade[3]);  // the workload's jump frame

    ServiceParams sp;
    sp.verifyRoundTrip = true;
    EncodeService svc(model(), sp);
    StreamHandle stream = svc.openGazeStream("tracked", geom);
    for (std::size_t i = 0; i < w.frames.size(); ++i) {
        svc.submit(stream, w.frames[i], w.gaze[i]);
        const FrameLease lease = svc.collect(stream);
        EXPECT_EQ(lease->bdStream, reference[i]) << "frame " << i;
        EXPECT_EQ(lease->stats.saccadeBypassTiles > 0,
                  ref_saccade[i]) << "frame " << i;
    }

    const ServiceReport rep = svc.report();
    ASSERT_EQ(rep.streams.size(), 1u);
    const StreamStats &st = rep.streams[0];
    EXPECT_EQ(st.framesEncoded, w.frames.size());
    EXPECT_EQ(st.saccadeFrames, 1u);
    EXPECT_EQ(st.deferredGazeUpdates, 1u);
    EXPECT_EQ(st.refixations, w.frames.size() - 1);
    EXPECT_EQ(st.framesVerified, w.frames.size());
    EXPECT_EQ(st.corruptFrames, 0u);
    EXPECT_EQ(rep.corruptFrames, 0u);
}

TEST(GazeService, StreamsRefixateIndependently)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const Workload wa = workload(SceneId::Thai, n, 6);
    const Workload wb = workload(SceneId::Dumbo, n, 6);

    // Interleave two gaze streams with *different* scanpaths; each
    // must match its own single-stream run.
    const auto solo = [&](const Workload &w,
                          std::vector<GazeSample> gaze) {
        ServiceParams sp;
        EncodeService svc(model(), sp);
        StreamHandle s = svc.openGazeStream("solo", geom);
        std::vector<std::vector<uint8_t>> out;
        for (std::size_t i = 0; i < w.frames.size(); ++i) {
            svc.submit(s, w.frames[i], gaze[i]);
            out.push_back(svc.collect(s)->bdStream);
        }
        return out;
    };
    std::vector<GazeSample> gaze_b = wb.gaze;
    for (GazeSample &s : gaze_b) {  // shift stream B's scanpath
        s.x -= 6.0;
        s.y += 4.0;
    }
    const auto ref_a = solo(wa, wa.gaze);
    const auto ref_b = solo(wb, gaze_b);

    ServiceParams sp;
    EncodeService svc(model(), sp);
    StreamHandle a = svc.openGazeStream("a", geom);
    StreamHandle b = svc.openGazeStream("b", geom);
    for (std::size_t i = 0; i < wa.frames.size(); ++i) {
        svc.submit(a, wa.frames[i], wa.gaze[i]);
        svc.submit(b, wb.frames[i], gaze_b[i]);
        EXPECT_EQ(svc.collect(a)->bdStream, ref_a[i]) << i;
        EXPECT_EQ(svc.collect(b)->bdStream, ref_b[i]) << i;
    }
}

TEST(GazeService, NonFiniteSampleFailsOnlyItsFrame)
{
    // A bad sample's frame fails at collect; the stream goes on, and
    // every later frame is byte-identical to a run that never saw it.
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const Workload w = workload(SceneId::Office, n, 6);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const bool harden : {false, true}) {
        ServiceParams sp;
        sp.hardenIntegrity = harden;
        EncodeService svc(model(), sp);
        StreamHandle clean = svc.openGazeStream("clean", geom);
        StreamHandle probed = svc.openGazeStream("probed", geom);
        for (std::size_t i = 0; i < w.frames.size(); ++i) {
            if (i == 2 || i == 3) {  // around the frame-3 saccade
                const GazeSample &g = w.gaze[i];
                const GazeSample bad[] = {{nan, g.x, g.y},
                                          {g.timeSeconds, inf, g.y},
                                          {g.timeSeconds, g.x, -inf}};
                for (const GazeSample &b : bad) {
                    svc.submit(probed, w.frames[i], b);
                    EXPECT_THROW(svc.collect(probed),
                                 std::invalid_argument)
                        << "frame " << i;
                }
            }
            svc.submit(clean, w.frames[i], w.gaze[i]);
            svc.submit(probed, w.frames[i], w.gaze[i]);
            const FrameLease want = svc.collect(clean);
            const FrameLease got = svc.collect(probed);
            EXPECT_EQ(got->bdStream, want->bdStream)
                << "frame " << i << " harden " << harden;
            EXPECT_EQ(got->stats.saccadeBypassTiles,
                      want->stats.saccadeBypassTiles)
                << "frame " << i;
        }
        const ServiceReport rep = svc.report();
        ASSERT_EQ(rep.streams.size(), 2u);
        EXPECT_EQ(rep.streams[0].saccadeFrames, 1u);
        EXPECT_EQ(rep.streams[1].saccadeFrames, 1u);
        EXPECT_EQ(rep.streams[1].refixations,
                  rep.streams[0].refixations);
        EXPECT_EQ(rep.streams[1].fullRebuilds,
                  rep.streams[0].fullRebuilds);
        EXPECT_EQ(rep.streams[1].gazeRecoveries, 0u);
    }
}

TEST(GazeService, MixedSubmitApisAreRejected)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap static_map(geom);
    const ImageF frame(n, n);

    ServiceParams sp;
    EncodeService svc(model(), sp);
    StreamHandle tracked = svc.openGazeStream("tracked", geom);
    StreamHandle fixed = svc.openStream("fixed", static_map);

    EXPECT_THROW(svc.submit(tracked, frame), std::invalid_argument);
    EXPECT_THROW(svc.submit(fixed, frame, {0.0, 1.0, 1.0}),
                 std::invalid_argument);
    // The valid pairings still work.
    svc.submit(tracked, frame, {0.0, n / 2.0, n / 2.0});
    svc.submit(fixed, frame);
    svc.drainAll();

    // Gaze params that cannot honor the foveal cutoff fail at open.
    GazeStreamParams bad;
    bad.ecc.exactBandDeg = 6.0;
    EXPECT_THROW(svc.openGazeStream("bad", geom, bad),
                 std::invalid_argument);
}

TEST(GazeService, VerifyRoundTripCountsOnStaticStreams)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    ServiceParams sp;
    sp.verifyRoundTrip = true;
    EncodeService svc(model(), sp);
    StreamHandle s = svc.openStream("checked", ecc);
    const ImageF frame =
        renderScene(SceneId::Monkey, {n, n, 0, 0, 0});
    for (int i = 0; i < 3; ++i) {
        svc.submit(s, frame);
        svc.collect(s).release();
    }
    const ServiceReport rep = svc.report();
    EXPECT_EQ(rep.streams[0].framesVerified, 3u);
    EXPECT_EQ(rep.streams[0].corruptFrames, 0u);
    EXPECT_EQ(rep.corruptFrames, 0u);

    // Off by default: no verification cost, no counts.
    ServiceParams off;
    EncodeService svc2(model(), off);
    StreamHandle s2 = svc2.openStream("unchecked", ecc);
    svc2.submit(s2, frame);
    svc2.collect(s2).release();
    EXPECT_EQ(svc2.report().streams[0].framesVerified, 0u);
}

TEST(GazeService, QueueDepthMetricsSurfaceInReport)
{
    const int n = 32;
    const DisplayGeometry geom = geometry(n, n);
    const EccentricityMap ecc(geom);
    ServiceParams sp;
    sp.streamDepth = 4;
    EncodeService svc(model(), sp);
    StreamHandle s = svc.openStream("depth", ecc);
    const ImageF frame(n, n, Vec3(0.5, 0.5, 0.5));
    for (int i = 0; i < 4; ++i)
        svc.submit(s, frame);
    svc.drain(s);
    const ServiceReport rep = svc.report();
    EXPECT_EQ(rep.queueCapacity, sp.queueCapacity);
    EXPECT_GE(rep.queuePeakDepth, 1u);
    EXPECT_LE(rep.queuePeakDepth, rep.queueCapacity);
    EXPECT_EQ(rep.queuedRequests, 0u);
}

} // namespace
} // namespace pce
