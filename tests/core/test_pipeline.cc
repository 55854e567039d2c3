/**
 * @file
 * Tests for the frame-level perceptual encoding pipeline (paper Fig. 7).
 */

#include <gtest/gtest.h>

#include "color/dkl.hh"
#include "core/pipeline.hh"
#include "core/quadric.hh"
#include "render/scenes.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

EccentricityMap
centeredMap(int w, int h, double fov = 100.0)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.horizontalFovDeg = fov;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return EccentricityMap(g);
}

TEST(Pipeline, FovealPixelsAreBitExact)
{
    const int n = 128;
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    PipelineStats stats;
    const ImageF adjusted = enc.adjustFrame(frame, ecc, &stats);

    EXPECT_GT(stats.fovealBypassTiles, 0u);
    for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
            if (ecc.at(x, y) < 5.0) {
                EXPECT_EQ(adjusted.at(x, y), frame.at(x, y))
                    << "foveal pixel (" << x << "," << y << ") moved";
            }
        }
    }
}

TEST(Pipeline, AdjustedPixelsStayWithinEllipsoids)
{
    const int n = 96;
    const ImageF frame =
        renderScene(SceneId::Skyline, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    const ImageF adjusted = enc.adjustFrame(frame, ecc);

    for (int y = 0; y < n; y += 3) {
        for (int x = 0; x < n; x += 3) {
            const Ellipsoid e = model().ellipsoidFor(
                frame.at(x, y).clamped(0.0, 1.0), ecc.at(x, y));
            EXPECT_LE(e.membership(rgbToDkl(adjusted.at(x, y))),
                      1.0 + 1e-6)
                << "pixel (" << x << "," << y << ")";
        }
    }
}

TEST(Pipeline, StatsAccountEveryTile)
{
    const int n = 64;
    const ImageF frame =
        renderScene(SceneId::Thai, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    PipelineParams params;
    params.tileSize = 4;
    const PerceptualEncoder enc(model(), params);
    PipelineStats stats;
    enc.adjustFrame(frame, ecc, &stats);

    EXPECT_EQ(stats.totalTiles, static_cast<std::size_t>((n / 4) *
                                                         (n / 4)));
    EXPECT_EQ(stats.totalTiles,
              stats.fovealBypassTiles + stats.c1Tiles + stats.c2Tiles);
    EXPECT_EQ(stats.c1Tiles + stats.c2Tiles,
              stats.redAxisTiles + stats.blueAxisTiles);
}

TEST(Pipeline, EncodeProducesDecodableStream)
{
    const int n = 64;
    const ImageF frame =
        renderScene(SceneId::Fortnite, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    EncodedFrame encoded = enc.encodeFrame(frame, ecc);

    // Decoding needs only the stock BD decoder (no custom hardware);
    // verifyRoundTrip runs the hardened decodeInto and compares.
    EXPECT_TRUE(enc.verifyRoundTrip(encoded));
    EXPECT_EQ(BdCodec::decode(encoded.bdStream), encoded.adjustedSrgb);
    // analyze() and the materialized stream agree (byte padding only).
    EXPECT_NEAR(static_cast<double>(encoded.bdStats.totalBits()),
                static_cast<double>(encoded.bdStream.size() * 8), 8.0);
}

TEST(Pipeline, CompressesAtLeastAsWellAsPlainBd)
{
    const int n = 128;
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    const BdCodec bd(4);
    for (SceneId id : allScenes()) {
        const ImageF frame = renderScene(id, {n, n, 0, 0.0, 0});
        const auto base = bd.analyze(toSrgb8(frame));
        const auto ours = enc.encodeFrame(frame, ecc);
        EXPECT_LE(ours.bdStats.totalBits(), base.totalBits())
            << sceneName(id);
    }
}

TEST(Pipeline, MultiThreadedMatchesSerial)
{
    const int n = 96;
    const ImageF frame =
        renderScene(SceneId::Monkey, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);

    PipelineParams serial;
    serial.threads = 1;
    PipelineParams parallel;
    parallel.threads = 4;
    PipelineStats s1, s2;
    const ImageF a =
        PerceptualEncoder(model(), serial).adjustFrame(frame, ecc, &s1);
    const ImageF b = PerceptualEncoder(model(), parallel)
                         .adjustFrame(frame, ecc, &s2);

    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            EXPECT_EQ(a.at(x, y), b.at(x, y));
    EXPECT_EQ(s1.totalTiles, s2.totalTiles);
    EXPECT_EQ(s1.c1Tiles, s2.c1Tiles);
    EXPECT_EQ(s1.c2Tiles, s2.c2Tiles);
    EXPECT_EQ(s1.gamutClampedPixels, s2.gamutClampedPixels);
}

TEST(Pipeline, ThreadCountInvarianceIsBitExact)
{
    // The dynamic chunk scheduler must never leak into results: 1 vs 8
    // threads (more than this machine may have) produce byte-identical
    // frames, bitstreams, and every PipelineStats field. Repeated
    // frames through the same encoder exercise scratch/pool reuse.
    const int n = 96;
    const EccentricityMap ecc = centeredMap(n, n);
    PipelineParams serial;
    serial.threads = 1;
    PipelineParams parallel;
    parallel.threads = 8;
    const PerceptualEncoder enc1(model(), serial);
    const PerceptualEncoder enc8(model(), parallel);

    for (SceneId id : {SceneId::Office, SceneId::Dumbo}) {
        const ImageF frame = renderScene(id, {n, n, 0, 0.0, 0});
        for (int repeat = 0; repeat < 2; ++repeat) {
            const EncodedFrame a = enc1.encodeFrame(frame, ecc);
            const EncodedFrame b = enc8.encodeFrame(frame, ecc);

            // Adjusted linear frames are double-identical...
            EXPECT_EQ(enc1.adjustFrame(frame, ecc).pixels(),
                      enc8.adjustFrame(frame, ecc).pixels())
                << sceneName(id);
            // ...so the quantized frames and streams are byte-equal.
            EXPECT_EQ(a.adjustedSrgb, b.adjustedSrgb) << sceneName(id);
            EXPECT_EQ(a.bdStream, b.bdStream) << sceneName(id);

            EXPECT_EQ(a.stats.totalTiles, b.stats.totalTiles);
            EXPECT_EQ(a.stats.fovealBypassTiles,
                      b.stats.fovealBypassTiles);
            EXPECT_EQ(a.stats.c1Tiles, b.stats.c1Tiles);
            EXPECT_EQ(a.stats.c2Tiles, b.stats.c2Tiles);
            EXPECT_EQ(a.stats.redAxisTiles, b.stats.redAxisTiles);
            EXPECT_EQ(a.stats.blueAxisTiles, b.stats.blueAxisTiles);
            EXPECT_EQ(a.stats.gamutClampedPixels,
                      b.stats.gamutClampedPixels);
            EXPECT_EQ(a.bdStats.totalBits(), b.bdStats.totalBits());
        }
    }
}

TEST(Pipeline, LargerFovealCutoffBypassesMoreTiles)
{
    const int n = 96;
    const ImageF frame =
        renderScene(SceneId::Dumbo, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);

    PipelineParams small;
    small.fovealCutoffDeg = 2.0;
    PipelineParams large;
    large.fovealCutoffDeg = 20.0;
    PipelineStats s_small, s_large;
    PerceptualEncoder(model(), small)
        .adjustFrame(frame, ecc, &s_small);
    PerceptualEncoder(model(), large)
        .adjustFrame(frame, ecc, &s_large);
    EXPECT_GT(s_large.fovealBypassTiles, s_small.fovealBypassTiles);
}

TEST(Pipeline, MismatchedEccMapThrows)
{
    const ImageF frame(32, 32);
    const EccentricityMap ecc = centeredMap(16, 16);
    const PerceptualEncoder enc(model(), {});
    EXPECT_THROW(enc.adjustFrame(frame, ecc), std::invalid_argument);
}

TEST(Pipeline, RejectsBadThreadCount)
{
    PipelineParams params;
    params.threads = 0;
    EXPECT_THROW(PerceptualEncoder(model(), params),
                 std::invalid_argument);
}

TEST(Pipeline, CustomExtremaBackendIsUsed)
{
    // A pathological backend that reports zero mobility (high == low ==
    // center) must leave every pixel untouched -- proof the hook is on
    // the actual datapath.
    const int n = 64;
    const ImageF frame =
        renderScene(SceneId::Thai, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);

    PipelineParams params;
    params.extremaFn = [](const Ellipsoid &e, int axis) {
        (void)axis;
        ExtremaPair pair;
        pair.high = dklToRgb(e.centerDkl);
        pair.low = pair.high;
        return pair;
    };
    const PerceptualEncoder enc(model(), params);
    const ImageF adjusted = enc.adjustFrame(frame, ecc);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            EXPECT_EQ(adjusted.at(x, y), frame.at(x, y));
}

} // namespace
} // namespace pce
