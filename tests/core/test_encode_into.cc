/**
 * @file
 * The caller-owned-output frame APIs (adjustFrameInto /
 * encodeFrameInto): equality with the allocating APIs, buffer reuse in
 * the steady state, and invariance across thread counts and SIMD
 * dispatch levels.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/pipeline.hh"
#include "render/scenes.hh"
#include "simd/tile_kernels.hh"

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

TEST(EncodeInto, MatchesAllocatingApi)
{
    const int n = 96;
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});

    const EncodedFrame a = enc.encodeFrame(frame, ecc);
    EncodedFrame b;
    enc.encodeFrameInto(frame, ecc, b);

    EXPECT_EQ(a.adjustedSrgb, b.adjustedSrgb);
    EXPECT_EQ(a.bdStream, b.bdStream);
    EXPECT_EQ(a.bdStats.totalBits(), b.bdStats.totalBits());
    EXPECT_EQ(a.stats.totalTiles, b.stats.totalTiles);
    EXPECT_EQ(a.stats.gamutClampedPixels, b.stats.gamutClampedPixels);

    PipelineStats sa;
    PipelineStats sb;
    const ImageF adj_a = enc.adjustFrame(frame, ecc, &sa);
    ImageF adj_b;
    enc.adjustFrameInto(frame, ecc, adj_b, &sb);
    EXPECT_EQ(adj_a.pixels(), adj_b.pixels());
    EXPECT_EQ(sa.c1Tiles, sb.c1Tiles);
    EXPECT_EQ(sa.fovealBypassTiles, sb.fovealBypassTiles);
}

TEST(EncodeInto, SteadyStateReusesEveryBuffer)
{
    const int n = 64;
    const ImageF frame =
        renderScene(SceneId::Dumbo, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    const PerceptualEncoder enc(model(), {});

    EncodedFrame out;
    enc.encodeFrameInto(frame, ecc, out);
    const std::vector<uint8_t> first_stream = out.bdStream;

    // Second frame of the stream: identical results, same allocations
    // (data pointers and capacities must not move).
    const uint8_t *srgb_data = out.adjustedSrgb.data().data();
    const uint8_t *stream_data = out.bdStream.data();
    const std::size_t stream_cap = out.bdStream.capacity();

    for (int repeat = 0; repeat < 3; ++repeat) {
        enc.encodeFrameInto(frame, ecc, out);
        EXPECT_EQ(out.bdStream, first_stream);
        EXPECT_EQ(out.adjustedSrgb.data().data(), srgb_data);
        EXPECT_EQ(out.bdStream.data(), stream_data);
        EXPECT_EQ(out.bdStream.capacity(), stream_cap);
    }
}

TEST(EncodeInto, ReusedResultAdaptsToNewGeometry)
{
    const EccentricityMap ecc64 = centeredMap(64, 64);
    const EccentricityMap ecc96 = centeredMap(96, 80);
    const PerceptualEncoder enc(model(), {});
    const ImageF small =
        renderScene(SceneId::Office, {64, 64, 0, 0.0, 0});
    const ImageF large =
        renderScene(SceneId::Office, {96, 80, 0, 0.0, 0});

    EncodedFrame out;
    enc.encodeFrameInto(small, ecc64, out);
    enc.encodeFrameInto(large, ecc96, out);
    EXPECT_EQ(out.adjustedSrgb.width(), 96);
    EXPECT_EQ(out.adjustedSrgb.height(), 80);
    EXPECT_EQ(out.bdStream, enc.encodeFrame(large, ecc96).bdStream);
    enc.encodeFrameInto(small, ecc64, out);
    EXPECT_EQ(out.bdStream, enc.encodeFrame(small, ecc64).bdStream);
}

TEST(EncodeInto, VerifyRoundTripHoldsAndReusesBuffers)
{
    // The per-frame lossless check: decode-back equals the encoded
    // sRGB frame, serial and parallel, over repeated encodes into one
    // result (tests/core/test_steady_state_alloc.cc counts that the
    // repeats allocate nothing).
    const int n = 96;
    const ImageF frame =
        renderScene(SceneId::Office, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);
    for (const int threads : {1, 4}) {
        PipelineParams p;
        p.threads = threads;
        const PerceptualEncoder enc(model(), p);
        EncodedFrame out;
        enc.encodeFrameInto(frame, ecc, out);
        EXPECT_TRUE(enc.verifyRoundTrip(out)) << threads << " threads";
        EXPECT_EQ(BdCodec::decode(out.bdStream), out.adjustedSrgb);

        for (int repeat = 0; repeat < 2; ++repeat) {
            enc.encodeFrameInto(frame, ecc, out);
            EXPECT_TRUE(enc.verifyRoundTrip(out));
        }

        // A post-encode corruption must be caught, by throw (stream
        // structure broken) or by mismatch (payload altered).
        enc.encodeFrameInto(frame, ecc, out);
        out.bdStream[out.bdStream.size() / 2] ^= 0x10;
        bool caught = false;
        try {
            caught = !enc.verifyRoundTrip(out);
        } catch (const std::runtime_error &) {
            caught = true;
        }
        EXPECT_TRUE(caught) << threads << " threads";
    }
}

TEST(EncodeInto, ThreadAndSimdInvariance)
{
    // The Into flow must be bit-identical across thread counts (the
    // parallel BD splice) and across SIMD dispatch levels (the kernel
    // layer), in any combination available on this host.
    const int n = 96;
    const ImageF frame =
        renderScene(SceneId::Skyline, {n, n, 0, 0.0, 0});
    const EccentricityMap ecc = centeredMap(n, n);

    PipelineParams serial;
    serial.threads = 1;
    const PerceptualEncoder enc1(model(), serial);
    EncodedFrame reference;
    enc1.encodeFrameInto(frame, ecc, reference);

    for (const int threads : {2, 4, 8}) {
        PipelineParams p;
        p.threads = threads;
        const PerceptualEncoder enc(model(), p);
        EncodedFrame out;
        for (int repeat = 0; repeat < 2; ++repeat) {
            enc.encodeFrameInto(frame, ecc, out);
            EXPECT_EQ(out.bdStream, reference.bdStream)
                << threads << " threads, repeat " << repeat;
            EXPECT_EQ(out.adjustedSrgb, reference.adjustedSrgb);
        }
    }

    ASSERT_EQ(setenv("FOVE_SIMD", "off", 1), 0);
    PipelineParams p;
    p.threads = 3;
    const PerceptualEncoder scalar_enc(model(), p);
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);
    EncodedFrame scalar_out;
    scalar_enc.encodeFrameInto(frame, ecc, scalar_out);
    EXPECT_EQ(scalar_out.bdStream, reference.bdStream);
    EXPECT_EQ(scalar_enc.adjustFrame(frame, ecc).pixels(),
              enc1.adjustFrame(frame, ecc).pixels());
}

TEST(EncodeInto, TileLoopStatsMatchBdPassOne)
{
    // The tile loop hands the BD encoder its per-tile stats (the cost
    // kernel's code range for adjusted tiles, a scan of the quantized
    // rows for bypassed ones); the stream must equal the standalone encode
    // of the delivered image, whose pass 1 rescans it. Ragged edges,
    // odd tile sizes, both gaze phases, serial and pooled.
    const int w = 61;
    const int h = 47;
    const ImageF frame = renderScene(SceneId::Office, {w, h, 0, 0.0, 0});
    DisplayGeometry geom;
    geom.width = w;
    geom.height = h;
    geom.horizontalFovDeg = 100.0;
    geom.fixationX = w / 2.0;
    geom.fixationY = h / 2.0;
    const EccentricityMap ecc(geom);

    for (const int tile : {3, 4, 8, 16}) {
        for (const int threads : {1, 3}) {
            PipelineParams p;
            p.tileSize = tile;
            p.threads = threads;
            const PerceptualEncoder enc(model(), p);
            const BdCodec codec(tile);
            const std::string where = "tile " + std::to_string(tile) +
                                      ", " + std::to_string(threads) +
                                      " threads";
            auto expectPassOne = [&](const EncodedFrame &out,
                                     const std::string &what) {
                BdFrameStats stats;
                EXPECT_EQ(out.bdStream,
                          codec.encode(out.adjustedSrgb, &stats))
                    << what << ", " << where;
                EXPECT_EQ(out.bdStats.totalBits(), stats.totalBits())
                    << what << ", " << where;
            };

            EncodedFrame out;
            enc.encodeFrameInto(frame, ecc, out);
            expectPassOne(out, "encodeFrameInto");
            EXPECT_EQ(out.adjustedSrgb, toSrgb8(enc.adjustFrame(frame, ecc)))
                << where;

            GazeTrackedEccentricity gaze(geom);
            EXPECT_EQ(enc.encodeFrameGazeInto(
                          frame, gaze, {0.0, geom.fixationX, geom.fixationY},
                          out),
                      GazePhase::Fixation);
            expectPassOne(out, "fixation frame");
            EXPECT_EQ(enc.encodeFrameGazeInto(frame, gaze,
                                              {1.0 / 72.0, 58.0, 4.0}, out),
                      GazePhase::Saccade);
            expectPassOne(out, "saccade frame");
            EXPECT_EQ(out.adjustedSrgb, toSrgb8(frame)) << where;
        }
    }
}

} // namespace
} // namespace pce
