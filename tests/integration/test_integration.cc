/**
 * @file
 * Cross-module integration tests: the full Fig. 7 pipeline against all
 * baselines, the perceptual-quality chain, and the hardware roll-up.
 */

#include <gtest/gtest.h>

#include "bd/bd_codec.hh"
#include "core/pipeline.hh"
#include "hw/cau_model.hh"
#include "hw/dram_model.hh"
#include "image/image.hh"
#include "metrics/report.hh"
#include "perception/observer.hh"
#include "png/png_codec.hh"
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
centeredMap(int w, int h)
{
    DisplayGeometry g;
    g.width = w;
    g.height = h;
    g.fixationX = w / 2.0;
    g.fixationY = h / 2.0;
    return EccentricityMap(g);
}

TEST(Integration, CodecOrderingHoldsOnEveryScene)
{
    // Fig. 10 shape: ours < BD < raw, SCC < raw; PNG lossless
    // round-trips. (PNG vs BD ordering is scene-dependent in the paper
    // and is not asserted.)
    const int n = 96;
    const EccentricityMap ecc = centeredMap(n, n);
    PipelineParams pp;
    pp.threads = 2;
    const PerceptualEncoder enc(model(), pp);
    const BdCodec bd(4);

    for (SceneId id : allScenes()) {
        const ImageF frame = renderScene(id, {n, n, 0, 0.0, 0});
        const ImageU8 srgb = toSrgb8(frame);

        const double raw_bits = 24.0 * srgb.pixelCount();
        const double bd_bits =
            static_cast<double>(bd.analyze(srgb).totalBits());
        const auto ours = enc.encodeFrame(frame, ecc);
        const double ours_bits =
            static_cast<double>(ours.bdStats.totalBits());
        const auto png = pngEncode(srgb);

        EXPECT_LT(bd_bits, raw_bits) << sceneName(id);
        EXPECT_LE(ours_bits, bd_bits) << sceneName(id);
        EXPECT_EQ(pngDecode(png), srgb) << sceneName(id);
    }
}

TEST(Integration, DisplayPathIsUnchangedBdDecoder)
{
    // Sec. 3.4 "Remarks on Decoding": the stream our encoder emits is a
    // plain BD stream; the stock decoder reconstructs it bit-exactly.
    const int n = 64;
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    const ImageF frame =
        renderScene(SceneId::Skyline, {n, n, 0, 0.0, 0});
    const auto encoded = enc.encodeFrame(frame, ecc);
    EXPECT_EQ(BdCodec::decode(encoded.bdStream), encoded.adjustedSrgb);
}

TEST(Integration, PerceptualQualityChainHolds)
{
    // Numerically lossy (PSNR finite), perceptually bounded (population
    // observer sees few supra-threshold pixels on bright scenes).
    const int n = 96;
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    const ImageF frame =
        renderScene(SceneId::Fortnite, {n, n, 0, 0.0, 0});
    const auto encoded = enc.encodeFrame(frame, ecc);

    const double quality = psnr(toSrgb8(frame), encoded.adjustedSrgb);
    EXPECT_LT(quality, 70.0);  // numerically lossy
    EXPECT_GT(quality, 20.0);  // but not destroyed

    ObserverPopulationParams params;
    const SimulatedObserver average(1.0, params);
    EXPECT_LT(average.supraThresholdFraction(frame,
                                             enc.adjustFrame(frame, ecc),
                                             ecc, model()),
              0.02);
}

TEST(Integration, StereoFramesCompressIndependently)
{
    const int n = 64;
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    const StereoFrame stereo = renderStereo(SceneId::Office, n, n);
    const auto left = enc.encodeFrame(stereo.left, ecc);
    const auto right = enc.encodeFrame(stereo.right, ecc);
    EXPECT_EQ(BdCodec::decode(left.bdStream), left.adjustedSrgb);
    EXPECT_EQ(BdCodec::decode(right.bdStream), right.adjustedSrgb);
    // Parallax makes the streams differ.
    EXPECT_NE(left.bdStream, right.bdStream);
}

TEST(Integration, PowerModelEndToEnd)
{
    // Feed measured compressed sizes into the Fig. 13 arithmetic.
    const int n = 96;
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    const BdCodec bd(4);
    const ImageF frame = renderScene(SceneId::Thai, {n, n, 0, 0.0, 0});

    const double bd_bytes =
        static_cast<double>(bd.analyze(toSrgb8(frame)).totalBits()) /
        8.0;
    const auto ours = enc.encodeFrame(frame, ecc);
    const double ours_bytes =
        static_cast<double>(ours.bdStats.totalBits()) / 8.0;

    const CauModel cau;
    const DramModel dram;
    const double saving = dram.powerSavingMw(bd_bytes, ours_bytes, 72.0,
                                             cau.totalPowerMw());
    // At this tiny resolution the saving is small but must be finite
    // and consistent with the traffic delta.
    EXPECT_GT(saving, -cau.totalPowerMw() - 1e-9);
    const double gross = dram.streamPowerMw(bd_bytes, 72.0) -
                         dram.streamPowerMw(ours_bytes, 72.0);
    EXPECT_NEAR(saving, gross - cau.totalPowerMw(), 1e-12);
}

TEST(Integration, TileSizeSweepReproducesFig15Trend)
{
    // Fig. 15: compression peaks at small tiles and degrades as tiles
    // grow (worst-case delta dominates); T16 must be clearly worse than
    // T4 on textured content.
    const int n = 96;
    const EccentricityMap ecc = centeredMap(n, n);
    const ImageF frame =
        renderScene(SceneId::Skyline, {n, n, 0, 0.0, 0});

    double bpp_t4 = 0.0;
    double bpp_t16 = 0.0;
    for (int tile : {4, 16}) {
        PipelineParams params;
        params.tileSize = tile;
        const PerceptualEncoder enc(model(), params);
        const auto encoded = enc.encodeFrame(frame, ecc);
        (tile == 4 ? bpp_t4 : bpp_t16) =
            encoded.bdStats.bitsPerPixel();
    }
    EXPECT_LT(bpp_t4, bpp_t16);
}

TEST(Integration, UserStudyHarnessRunsEndToEnd)
{
    // Miniature Fig. 14: population verdicts over original/adjusted
    // pairs; bright green content must not be worse than dark content.
    const int n = 64;
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});
    ObserverPopulationParams params;
    const auto pop = drawObserverPopulation(params);

    const ImageF bright =
        renderScene(SceneId::Fortnite, {n, n, 0, 0.0, 0});
    const ImageF dark =
        renderScene(SceneId::Monkey, {n, n, 0, 0.0, 0});
    const auto bright_adj = enc.adjustFrame(bright, ecc);
    const auto dark_adj = enc.adjustFrame(dark, ecc);

    const auto bright_res =
        runUserStudy(pop, bright, bright_adj, ecc, model());
    const auto dark_res =
        runUserStudy(pop, dark, dark_adj, ecc, model());
    EXPECT_EQ(bright_res.participants, 11);
    EXPECT_GE(bright_res.noArtifactCount, dark_res.noArtifactCount);
}

TEST(Integration, ReportHelpersMatchCodecStats)
{
    const int n = 64;
    const BdCodec bd(4);
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const auto stats = bd.analyze(toSrgb8(frame));
    EXPECT_NEAR(bitsPerPixel(stats.totalBits(), stats.pixels),
                stats.bitsPerPixel(), 1e-12);
    EXPECT_NEAR(reductionVsRawPercent(stats.bitsPerPixel()),
                stats.reductionVsRawPercent(), 1e-12);
}

} // namespace
} // namespace pce
