/**
 * @file
 * Tests for the Base+Delta framebuffer codec (paper Sec. 2.2).
 */

#include <gtest/gtest.h>

#include "bd/bd_codec.hh"
#include "common/rng.hh"

namespace pce {
namespace {

ImageU8
randomImage(int w, int h, uint64_t seed, int range = 256)
{
    Rng rng(seed);
    ImageU8 img(w, h);
    for (auto &b : img.data())
        b = static_cast<uint8_t>(rng.uniformInt(range));
    return img;
}

TEST(BdDeltaWidth, ExactBoundaries)
{
    EXPECT_EQ(bdDeltaWidth(10, 10), 0u);   // flat
    EXPECT_EQ(bdDeltaWidth(10, 11), 1u);   // range 1
    EXPECT_EQ(bdDeltaWidth(10, 12), 2u);   // range 2
    EXPECT_EQ(bdDeltaWidth(10, 13), 2u);   // range 3
    EXPECT_EQ(bdDeltaWidth(10, 14), 3u);   // range 4: ceil, not floor
    EXPECT_EQ(bdDeltaWidth(0, 255), 8u);   // full range
    EXPECT_EQ(bdDeltaWidth(0, 127), 7u);
    EXPECT_EQ(bdDeltaWidth(0, 128), 8u);
}

TEST(BdDeltaWidth, PaperFloorFormWouldLoseData)
{
    // Documentation of the Eq. 6 deviation: floor(log2(range+1)) for
    // range 4 yields 2 bits, but deltas 0..4 need 3. Our ceil form is
    // asserted lossless by the round-trip tests below.
    const unsigned range = 4;
    const unsigned floor_bits = 2;  // floor(log2(5)) = 2
    EXPECT_LT(1u << floor_bits, range + 1);
    EXPECT_GE(1u << bdDeltaWidth(0, 4), range + 1);
}

class BdRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(BdRoundTripTest, LosslessForRandomImages)
{
    const auto [w, h, tile] = GetParam();
    const BdCodec codec(tile);
    const ImageU8 img = randomImage(w, h, 1000 + w * h + tile);
    const auto stream = codec.encode(img);
    const ImageU8 back = BdCodec::decode(stream);
    EXPECT_EQ(back, img);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTiles, BdRoundTripTest,
    ::testing::Values(std::tuple(16, 16, 4), std::tuple(64, 32, 4),
                      std::tuple(33, 17, 4),   // ragged edges
                      std::tuple(7, 5, 4),     // image smaller than tile
                      std::tuple(40, 40, 8), std::tuple(50, 30, 6),
                      std::tuple(64, 64, 16), std::tuple(10, 10, 1),
                      std::tuple(1, 1, 4)));

TEST(BdCodec, SmoothContentCompressesRandomDoesNot)
{
    // BD thrives on small local ranges.
    ImageU8 smooth(64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            for (int c = 0; c < 3; ++c)
                smooth.setChannel(x, y, c,
                                  static_cast<uint8_t>((x + y) / 2));
    const ImageU8 noisy = randomImage(64, 64, 7);

    const BdCodec codec(4);
    const double smooth_bpp = codec.analyze(smooth).bitsPerPixel();
    const double noisy_bpp = codec.analyze(noisy).bitsPerPixel();
    EXPECT_LT(smooth_bpp, 12.0);
    EXPECT_GT(noisy_bpp, 20.0);  // random data compresses ~not at all
}

TEST(BdCodec, FlatImageCostsOnlyBasesAndMetadata)
{
    ImageU8 flat(16, 16);
    for (auto &b : flat.data())
        b = 123;
    const BdCodec codec(4);
    const auto stats = codec.analyze(flat);
    EXPECT_EQ(stats.deltaBits, 0u);
    // 16 tiles * 3 channels * (8 base + 4 meta).
    EXPECT_EQ(stats.baseBits, 16u * 3 * 8);
    EXPECT_EQ(stats.metaBits, 16u * 3 * 4);
}

TEST(BdCodec, AnalyzeMatchesEncodedStreamLength)
{
    Rng rng(9);
    for (int trial = 0; trial < 20; ++trial) {
        const int w = 1 + static_cast<int>(rng.uniformInt(70));
        const int h = 1 + static_cast<int>(rng.uniformInt(70));
        const int tile = 1 + static_cast<int>(rng.uniformInt(8));
        const BdCodec codec(tile);
        const ImageU8 img = randomImage(w, h, trial * 77u);
        const auto stats = codec.analyze(img);
        const auto stream = codec.encode(img);
        // The stream is byte-aligned at the very end only.
        EXPECT_EQ((stats.totalBits() + 7) / 8, stream.size());
    }
}

TEST(BdCodec, TileStatsMatchManual)
{
    ImageU8 img(4, 4);
    // Channel 0 values 10..25 -> base 10, range 15 -> 4 bits; channels
    // 1 and 2 stay 0 -> base 0, width 0.
    int v = 10;
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            img.setChannel(x, y, 0, static_cast<uint8_t>(v++));
    uint8_t base[3];
    uint8_t width[3];
    bdTileStats(img, TileRect{0, 0, 4, 4}, base, width);
    EXPECT_EQ(base[0], 10);
    EXPECT_EQ(width[0], 4);
    for (int c = 1; c < 3; ++c) {
        EXPECT_EQ(base[c], 0);
        EXPECT_EQ(width[c], 0);
    }
    // analyze sums the same per-tile stats.
    const BdFrameStats stats = BdCodec(4).analyze(img);
    EXPECT_EQ(stats.baseBits, 3u * 8);
    EXPECT_EQ(stats.metaBits, 3u * 4);
    EXPECT_EQ(stats.deltaBits, 16u * 4);
}

TEST(BdCodec, ReductionPercentagesAreConsistent)
{
    const ImageU8 img = randomImage(32, 32, 10, 16);  // low-range noise
    const BdCodec codec(4);
    const auto stats = codec.analyze(img);
    const double bpp = stats.bitsPerPixel();
    EXPECT_NEAR(stats.reductionVsRawPercent(),
                100.0 * (1.0 - bpp / 24.0), 1e-9);
    EXPECT_LT(bpp, 24.0);
}

TEST(BdCodec, DecodeRejectsCorruptMagic)
{
    const BdCodec codec(4);
    auto stream = codec.encode(randomImage(8, 8, 11));
    stream[0] ^= 0xff;
    EXPECT_THROW(BdCodec::decode(stream), std::runtime_error);
}

TEST(BdCodec, DecodeRejectsTruncatedStream)
{
    const BdCodec codec(4);
    auto stream = codec.encode(randomImage(32, 32, 12));
    stream.resize(stream.size() / 2);
    EXPECT_THROW(BdCodec::decode(stream), std::runtime_error);
}

TEST(BdCodec, RejectsBadTileSize)
{
    EXPECT_THROW(BdCodec(0), std::invalid_argument);
    EXPECT_THROW(BdCodec(-1), std::invalid_argument);
    EXPECT_THROW(BdCodec(300), std::invalid_argument);
}

TEST(BdFrameStats, BitsPerPixelHandlesEmpty)
{
    BdFrameStats stats;
    EXPECT_DOUBLE_EQ(stats.bitsPerPixel(), 0.0);
}

} // namespace
} // namespace pce
