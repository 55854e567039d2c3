/**
 * @file
 * Tests for the variable bit-length BD extension (paper footnote 1).
 */

#include <gtest/gtest.h>

#include "bd/bd_variable.hh"
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

class BdVariableRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(BdVariableRoundTripTest, Lossless)
{
    const auto [w, h, tile] = GetParam();
    const BdVariableCodec codec(tile);
    const ImageU8 img = randomImage(w, h, 500 + w * h + tile);
    EXPECT_EQ(BdVariableCodec::decode(codec.encode(img)), img);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndTiles, BdVariableRoundTripTest,
    ::testing::Values(std::tuple(16, 16, 4), std::tuple(33, 17, 4),
                      std::tuple(7, 5, 4), std::tuple(64, 64, 8),
                      std::tuple(40, 24, 6), std::tuple(1, 1, 4)));

TEST(BdVariable, AtMostOneModeBitWorseThanUniformBd)
{
    // Choosing mode 0 everywhere reproduces BdCodec plus the 1-bit mode
    // flags; the encoder picks min(mode0, mode1), so the bound holds.
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const ImageU8 img = randomImage(32, 32, trial * 31u);
        const BdCodec uniform(4);
        const BdVariableCodec variable(4);
        const auto u = uniform.analyze(img);
        const auto v = variable.analyze(img);
        const std::size_t tiles = 8 * 8;
        EXPECT_LE(v.totalBits, u.totalBits() + tiles * 3);
    }
}

TEST(BdVariable, PerRowModeWinsOnRowStructuredContent)
{
    // A tile whose rows are individually flat but mutually far apart:
    // uniform mode needs wide deltas for every pixel; per-row needs
    // none.
    ImageU8 img(4, 4);
    const uint8_t rows[4] = {10, 200, 60, 140};
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            for (int c = 0; c < 3; ++c)
                img.setChannel(x, y, c, rows[y]);

    const BdVariableCodec codec(4);
    const auto stats = codec.analyze(img);
    EXPECT_EQ(stats.perRowChannels, 3u);
    // Uniform would cost 4+8+16*8 bits/channel; per-row costs
    // 8 + 4*(4+0) = 24 bits/channel (rows flat relative to base need
    // width 8 only on non-base rows...) -- assert the aggregate win.
    const BdCodec uniform(4);
    EXPECT_LT(stats.totalBits, uniform.analyze(img).totalBits());
    EXPECT_EQ(BdVariableCodec::decode(codec.encode(img)), img);
}

TEST(BdVariable, UniformModeWinsOnUniformNoise)
{
    // I.i.d. noise has no row structure: per-row mode pays 4 width
    // fields for nothing, so uniform should dominate.
    const ImageU8 img = randomImage(64, 64, 99);
    const BdVariableCodec codec(4);
    const auto stats = codec.analyze(img);
    EXPECT_GT(stats.uniformChannels, stats.perRowChannels);
}

TEST(BdVariable, AnalyzeMatchesStreamLength)
{
    Rng rng(7);
    for (int trial = 0; trial < 10; ++trial) {
        const int w = 1 + static_cast<int>(rng.uniformInt(50));
        const int h = 1 + static_cast<int>(rng.uniformInt(50));
        const ImageU8 img = randomImage(w, h, trial * 13u, 32);
        const BdVariableCodec codec(4);
        EXPECT_EQ((codec.analyze(img).totalBits + 7) / 8,
                  codec.encode(img).size());
    }
}

TEST(BdVariable, GradientContentBeatsUniformBd)
{
    // A steep vertical gradient has row-local ranges of zero but a tile
    // range spanning several values; per-row widths should strictly
    // win over the uniform tile width.
    ImageU8 img(64, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            for (int c = 0; c < 3; ++c)
                img.setChannel(x, y, c,
                               static_cast<uint8_t>((y * 4) & 0xff));

    const BdVariableCodec variable(4);
    const BdCodec uniform(4);
    EXPECT_LT(variable.analyze(img).totalBits,
              uniform.analyze(img).totalBits());
    EXPECT_EQ(BdVariableCodec::decode(variable.encode(img)), img);
}

TEST(BdVariable, DecodeRejectsCorruption)
{
    const BdVariableCodec codec(4);
    auto stream = codec.encode(randomImage(16, 16, 3));
    stream[0] ^= 0xff;
    EXPECT_THROW(BdVariableCodec::decode(stream), std::runtime_error);
    stream[0] ^= 0xff;
    stream.resize(stream.size() / 2);
    EXPECT_THROW(BdVariableCodec::decode(stream), std::runtime_error);
}

TEST(BdVariable, EncodeRejectsFramesTheHeaderCannotHold)
{
    // A 65537-wide frame does not fit the 16-bit width field: encode
    // refuses it, as BdCodec::encode does, instead of writing a header
    // whose width has wrapped to 1.
    const ImageU8 wide(65537, 1);
    EXPECT_THROW(BdVariableCodec(4).encode(wide), std::invalid_argument);
    EXPECT_THROW(BdCodec(4).encode(wide), std::invalid_argument);
}

TEST(BdVariable, RejectsBadTileSize)
{
    EXPECT_THROW(BdVariableCodec(0), std::invalid_argument);
    EXPECT_THROW(BdVariableCodec(256), std::invalid_argument);
}

} // namespace
} // namespace pce
