/**
 * @file
 * PerceptualEncoder::encodeFrameGazeInto (core/pipeline.hh): fixation
 * frames match the static-map encode for the same fixation, saccade
 * frames take the whole-frame bypass (and still decode losslessly),
 * the exact-band guarantee is enforced, and the steady state of a
 * gaze-tracked frame loop pins every buffer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.hh"
#include "render/scenes.hh"

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

TEST(GazePipeline, FixationFrameMatchesStaticEncodeAtSameFixation)
{
    const int n = 64;
    const DisplayGeometry geom = geometry(n, n);
    const ImageF frame = renderScene(SceneId::Office, {n, n, 0, 0, 0});
    const PerceptualEncoder enc(model());

    // First sample sits exactly on the initial fixation: the gaze map
    // is bit-identical to the static one, so the encode must be too.
    GazeTrackedEccentricity gaze(geom);
    EncodedFrame via_gaze;
    const GazePhase phase = enc.encodeFrameGazeInto(
        frame, gaze, {0.0, geom.fixationX, geom.fixationY}, via_gaze);
    EXPECT_EQ(phase, GazePhase::Fixation);
    EXPECT_EQ(via_gaze.stats.saccadeBypassTiles, 0u);

    const EccentricityMap static_map(geom);
    EncodedFrame via_static;
    enc.encodeFrameInto(frame, static_map, via_static);
    EXPECT_EQ(via_gaze.bdStream, via_static.bdStream);
    EXPECT_EQ(via_gaze.adjustedSrgb, via_static.adjustedSrgb);
}

TEST(GazePipeline, MovingFixationTracksTheIncrementalMap)
{
    const int n = 64;
    const DisplayGeometry geom = geometry(n, n);
    const ImageF frame = renderScene(SceneId::Thai, {n, n, 0, 0, 0});
    const PerceptualEncoder enc(model());

    GazeTrackedEccentricity gaze(geom);
    // Twin state driven identically: encoding against its map via the
    // static entry point must reproduce the gaze entry point.
    GazeTrackedEccentricity twin(geom);

    EncodedFrame via_gaze, via_twin;
    // 1 s between samples: on this tiny 100-degree test display a
    // pixel is ~1.5 degrees, so HMD-rate sampling would classify any
    // pixel-scale motion as a saccade.
    double t = 0.0;
    for (const auto &[dx, dy] :
         {std::pair<double, double>{2.0, 1.0}, {3.0, -2.0},
          {-1.5, 2.5}}) {
        t += 1.0;
        const GazeSample s{t, gaze.map().fixationX() + dx,
                           gaze.map().fixationY() + dy};
        const GazePhase phase =
            enc.encodeFrameGazeInto(frame, gaze, s, via_gaze);
        ASSERT_EQ(phase, GazePhase::Fixation);

        ASSERT_EQ(twin.update(s), GazePhase::Fixation);
        enc.encodeFrameInto(frame, twin.map(), via_twin);
        ASSERT_EQ(via_gaze.bdStream, via_twin.bdStream);
    }
    EXPECT_EQ(gaze.refixations(), 3u);
}

TEST(GazePipeline, SaccadeFrameBypassesAdjustmentAndStillDecodes)
{
    const int n = 64;
    const DisplayGeometry geom = geometry(n, n);
    const ImageF frame = renderScene(SceneId::Dumbo, {n, n, 0, 0, 0});
    PipelineParams pp;
    pp.tileSize = 4;
    const PerceptualEncoder enc(model(), pp);

    GazeTrackedEccentricity gaze(geom);
    EncodedFrame out;
    // Land the classifier, then jump across the display in 1/72 s.
    enc.encodeFrameGazeInto(frame, gaze, {0.0, 32.0, 32.0}, out);
    const GazePhase phase = enc.encodeFrameGazeInto(
        frame, gaze, {1.0 / 72.0, 60.0, 4.0}, out);
    EXPECT_EQ(phase, GazePhase::Saccade);

    // Every tile bypassed: the adjusted image is the input.
    EXPECT_EQ(out.stats.saccadeBypassTiles, out.stats.totalTiles);
    EXPECT_EQ(out.stats.totalTiles, 16u * 16u);
    EXPECT_EQ(out.stats.fovealBypassTiles, 0u);
    EXPECT_EQ(out.adjustedSrgb, toSrgb8(frame));

    // The stream is still a valid lossless encode of the frame.
    EXPECT_TRUE(enc.verifyRoundTrip(out));
    EXPECT_EQ(BdCodec::decode(out.bdStream), toSrgb8(frame));

    // The map update was deferred during the saccade...
    EXPECT_EQ(gaze.deferredUpdates(), 1u);
    // ...and the landing fixation re-fixates (here: far enough for
    // the documented full-rebuild fallback).
    enc.encodeFrameGazeInto(frame, gaze, {2.0 / 72.0, 60.0, 4.0}, out);
    EXPECT_EQ(gaze.fullRebuilds(), 1u);
    EXPECT_DOUBLE_EQ(gaze.map().fixationX(), 60.0);
}

TEST(GazePipeline, SteadyStateGazeLoopPinsEveryBuffer)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const ImageF frame = renderScene(SceneId::Office, {n, n, 0, 0, 0});
    const PerceptualEncoder enc(model());

    GazeTrackedEccentricity gaze(geom);
    EncodedFrame out;
    // Warm both paths: the saccade frame encodes unadjusted, whose
    // (larger) stream sets the bdStream high-water capacity.
    enc.encodeFrameGazeInto(frame, gaze, {0.0, 24.0, 24.0}, out);
    enc.encodeFrameGazeInto(frame, gaze, {0.005, 54.0, 24.0}, out);
    enc.encodeFrameGazeInto(frame, gaze, {1.005, 25.0, 24.5}, out);

    const double *map_ptr = gaze.map().data();
    const uint8_t *srgb_ptr = out.adjustedSrgb.data().data();
    const uint8_t *stream_ptr = out.bdStream.data();
    const std::size_t stream_cap = out.bdStream.capacity();
    double t = 1.005;
    for (int i = 2; i < 24; ++i) {
        // Jitter and pursuit at 1 s spacing (fixations on this tiny
        // display, see above) plus one fast jump (a saccade frame).
        const double x = 24.0 + (i % 5) + (i == 13 ? 30.0 : 0.0);
        const double y = 24.0 + ((i * 3) % 7);
        t += (i == 13) ? 0.005 : 1.0;
        enc.encodeFrameGazeInto(frame, gaze, {t, x, y}, out);
        ASSERT_EQ(gaze.map().data(), map_ptr) << i;
        ASSERT_EQ(out.adjustedSrgb.data().data(), srgb_ptr) << i;
        ASSERT_EQ(out.bdStream.capacity(), stream_cap) << i;
        ASSERT_EQ(out.bdStream.data(), stream_ptr) << i;
    }
}

TEST(GazePipeline, ExactBandGuaranteeIsEnforced)
{
    const int n = 48;
    const DisplayGeometry geom = geometry(n, n);
    const ImageF frame = renderScene(SceneId::Office, {n, n, 0, 0, 0});
    const PerceptualEncoder enc(model());

    IncrementalEccParams bad;
    bad.exactBandDeg = 6.0;  // < fovealCutoffDeg(5) + accumulated(6)
    GazeTrackedEccentricity gaze(geom, bad);
    EncodedFrame out;
    EXPECT_THROW(
        enc.encodeFrameGazeInto(frame, gaze, {0.0, 24.0, 24.0}, out),
        std::invalid_argument);

    GazeTrackedEccentricity ok(geom);
    const ImageF wrong(32, 32);
    EXPECT_THROW(
        enc.encodeFrameGazeInto(wrong, ok, {0.0, 24.0, 24.0}, out),
        std::invalid_argument);
}

TEST(GazePipeline, RenderGazeClipPairsFramesWithSamples)
{
    const GazeAnnotatedClip clip =
        renderGazeClip(SceneId::Skyline, 64, 64, 12);
    ASSERT_EQ(clip.frames.size(), 12u);
    ASSERT_EQ(clip.gaze.samples.size(), 12u);
    for (std::size_t i = 1; i < clip.gaze.samples.size(); ++i)
        EXPECT_GE(clip.gaze.samples[i].timeSeconds,
                  clip.gaze.samples[i - 1].timeSeconds);
    // Deterministic for a fixed seed.
    const GazeAnnotatedClip again =
        renderGazeClip(SceneId::Skyline, 64, 64, 12);
    EXPECT_EQ(again.gaze.samples, clip.gaze.samples);
    EXPECT_EQ(again.frames[3].left.pixels(),
              clip.frames[3].left.pixels());
}

} // namespace
} // namespace pce
