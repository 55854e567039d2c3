/**
 * @file
 * Tests for image containers, tiling, PSNR and PPM I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hh"
#include "image/image.hh"
#include "image/ppm.hh"

namespace pce {
namespace {

ImageU8
randomImage(int w, int h, uint64_t seed)
{
    Rng rng(seed);
    ImageU8 img(w, h);
    for (auto &b : img.data())
        b = static_cast<uint8_t>(rng.uniformInt(256));
    return img;
}

TEST(ImageF, ConstructionAndFill)
{
    const ImageF img(4, 3, Vec3(0.5, 0.25, 0.125));
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.pixelCount(), 12u);
    EXPECT_EQ(img.at(3, 2), Vec3(0.5, 0.25, 0.125));
}

TEST(ImageF, MeanLuminanceAndColor)
{
    ImageF img(2, 1);
    img.at(0, 0) = Vec3(1.0, 1.0, 1.0);
    img.at(1, 0) = Vec3(0.0, 0.0, 0.0);
    EXPECT_NEAR(img.meanLuminance(), 0.5, 1e-12);
    EXPECT_EQ(img.meanColor(), Vec3(0.5, 0.5, 0.5));
}

TEST(ImageU8, PixelAccess)
{
    ImageU8 img(3, 2);
    img.setChannel(2, 1, 0, 10);
    img.setChannel(2, 1, 1, 20);
    img.setChannel(2, 1, 2, 30);
    EXPECT_EQ(img.channel(2, 1, 0), 10);
    EXPECT_EQ(img.channel(2, 1, 1), 20);
    EXPECT_EQ(img.channel(2, 1, 2), 30);
    EXPECT_EQ(img.byteSize(), 18u);
}

TEST(Conversion, SrgbLinearRoundTripStable)
{
    // toSrgb8(toLinear(img)) == img for any 8-bit image.
    const ImageU8 img = randomImage(16, 16, 1);
    const ImageU8 back = toSrgb8(toLinear(img));
    EXPECT_EQ(back, img);
}

class TileGridTest : public ::testing::TestWithParam<int>
{};

TEST_P(TileGridTest, CoversEveryPixelExactlyOnce)
{
    const int tile = GetParam();
    const int w = 37;  // deliberately not a multiple of any tile size
    const int h = 23;
    const TileGrid grid{w, h, tile};
    std::vector<int> cover(static_cast<std::size_t>(w) * h, 0);
    for (std::size_t i = 0; i < grid.count(); ++i) {
        const TileRect r = grid.rect(i);
        EXPECT_GT(r.w, 0);
        EXPECT_GT(r.h, 0);
        EXPECT_LE(r.w, tile);
        EXPECT_LE(r.h, tile);
        for (int y = r.y0; y < r.y0 + r.h; ++y)
            for (int x = r.x0; x < r.x0 + r.w; ++x)
                ++cover[static_cast<std::size_t>(y) * w + x];
    }
    for (int c : cover)
        EXPECT_EQ(c, 1);
}

TEST_P(TileGridTest, NextStepsThroughRectInOrder)
{
    // The tile passes take rect(begin) once and step with next(): the
    // chain from tile 0 must give every rect(i), across each row wrap
    // and up to the clamped last tile.
    const TileGrid grid{37, 23, GetParam()};
    TileRect r = grid.rect(0);
    for (std::size_t i = 0; i < grid.count(); ++i, r = grid.next(r))
        ASSERT_EQ(r, grid.rect(i)) << "tile " << i;
    EXPECT_LE(r.h, 0);  // one step past the last tile is below the image
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileGridTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10, 12, 16,
                                           32));

TEST(TileGrid, ExactFitProducesFullTiles)
{
    const TileGrid grid{16, 8, 4};
    EXPECT_EQ(grid.cols(), 4);
    EXPECT_EQ(grid.rows(), 2);
    EXPECT_EQ(grid.count(), 8u);
    for (std::size_t i = 0; i < grid.count(); ++i) {
        const TileRect t = grid.rect(i);
        EXPECT_EQ(t.w, 4);
        EXPECT_EQ(t.h, 4);
        EXPECT_EQ(t.pixelCount(), 16);
    }
}

TEST(TileGrid, EmptyImageHasNoTiles)
{
    const TileGrid grid{0, 0, 4};
    EXPECT_EQ(grid.count(), 0u);
    EXPECT_EQ(grid.rect(0).pixelCount(), 0);
}

TEST(Psnr, IdenticalImagesIsInfinite)
{
    const ImageU8 img = randomImage(8, 8, 2);
    EXPECT_TRUE(std::isinf(psnr(img, img)));
    EXPECT_DOUBLE_EQ(meanSquaredError(img, img), 0.0);
}

TEST(Psnr, KnownValueForUniformError)
{
    ImageU8 a(4, 4);
    ImageU8 b(4, 4);
    for (auto &v : b.data())
        v = 10;  // uniform error of 10 codes
    EXPECT_DOUBLE_EQ(meanSquaredError(a, b), 100.0);
    EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0),
                1e-12);
}

TEST(Psnr, SizeMismatchThrows)
{
    const ImageU8 a(4, 4);
    const ImageU8 b(5, 4);
    EXPECT_THROW(psnr(a, b), std::invalid_argument);
}

TEST(Ppm, RoundTripsThroughDisk)
{
    namespace fs = std::filesystem;
    const ImageU8 img = randomImage(21, 13, 3);
    const std::string path =
        (fs::temp_directory_path() / "pce_test_roundtrip.ppm").string();
    writePpm(path, img);
    const ImageU8 back = readPpm(path);
    EXPECT_EQ(back, img);
    fs::remove(path);
}

TEST(Ppm, ReadRejectsMissingFile)
{
    EXPECT_THROW(readPpm("/nonexistent/definitely_missing.ppm"),
                 std::runtime_error);
}

} // namespace
} // namespace pce
