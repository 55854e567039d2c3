/**
 * @file
 * Tests for the per-tile color adjustment (paper Sec. 3.3-3.4, Fig. 6).
 */

#include <gtest/gtest.h>

#include "bd/bd_codec.hh"
#include "color/dkl.hh"
#include "color/srgb.hh"
#include "common/rng.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "core/reference_solver.hh"
#include "adjust_reference.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

/** A random tile of colors around a base color (typical tile locality). */
std::vector<Vec3>
randomTile(Rng &rng, std::size_t n, double spread)
{
    const Vec3 base(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85),
                    rng.uniform(0.15, 0.85));
    std::vector<Vec3> tile;
    for (std::size_t i = 0; i < n; ++i) {
        Vec3 p = base + Vec3(rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread));
        tile.push_back(p.clamped(0.0, 1.0));
    }
    return tile;
}

class AdjustAxisTest : public ::testing::TestWithParam<int>
{};

TEST_P(AdjustAxisTest, AdjustedColorsStayInsideTheirEllipsoids)
{
    // The perceptual constraint Eq. 7d: every adjusted color must stay
    // within its own discrimination ellipsoid.
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(1 + axis);
    for (int trial = 0; trial < 60; ++trial) {
        const auto tile = randomTile(rng, 16, 0.05);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
        for (std::size_t i = 0; i < tile.size(); ++i) {
            const Ellipsoid e = model().ellipsoidFor(tile[i], ecc[i]);
            EXPECT_LE(e.membership(rgbToDkl(result.adjusted[i])),
                      1.0 + 1e-6)
                << "trial " << trial << " pixel " << i;
        }
    }
}

TEST_P(AdjustAxisTest, SpreadNeverIncreases)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(4 + axis);
    for (int trial = 0; trial < 60; ++trial) {
        const auto tile = randomTile(rng, 16, 0.08);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
        EXPECT_LE(channelSpread(result.adjusted, axis),
                  channelSpread(tile, axis) + 1e-12);
    }
}

TEST_P(AdjustAxisTest, AdjustedColorsStayInGamut)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(7 + axis);
    for (int trial = 0; trial < 60; ++trial) {
        // Tiles near the gamut boundary to exercise the clamping.
        std::vector<Vec3> tile;
        for (int i = 0; i < 16; ++i)
            tile.push_back(Vec3(rng.uniform(), rng.uniform(),
                                rng.uniform(0.9, 1.0)));
        const std::vector<double> ecc(16, 30.0);
        const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
        for (const Vec3 &p : result.adjusted) {
            EXPECT_GE(p.minCoeff(), -1e-12);
            EXPECT_LE(p.maxCoeff(), 1.0 + 1e-12);
        }
    }
}

TEST_P(AdjustAxisTest, Case2CollapsesChannelWithoutGamutPressure)
{
    // Identical pixels trivially admit a common plane: after adjustment
    // the channel spread must be exactly zero and nothing should move
    // (the common plane passes through the original value).
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    const std::vector<Vec3> tile(16, Vec3(0.5, 0.5, 0.5));
    const std::vector<double> ecc(16, 20.0);
    const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
    EXPECT_EQ(result.adjustCase, AdjustCase::C2);
    EXPECT_NEAR(channelSpread(result.adjusted, axis), 0.0, 1e-12);
}

TEST_P(AdjustAxisTest, NearbyColorsCollapseToCommonPlane)
{
    // Colors within a JND of each other fall into case 2 (Fig. 6b): the
    // optimized channel needs zero delta bits.
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(10 + axis);
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, 0.004);
        const std::vector<double> ecc(16, 30.0);
        const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
        if (result.adjustCase == AdjustCase::C2 &&
            result.gamutClampedPixels == 0) {
            EXPECT_NEAR(channelSpread(result.adjusted, axis), 0.0,
                        1e-9);
        }
    }
}

TEST_P(AdjustAxisTest, CaseClassificationMatchesPlanes)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(13 + axis);
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, 0.15);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
        if (result.adjustCase == AdjustCase::C1)
            EXPECT_GT(result.hlPlane, result.lhPlane);
        else
            EXPECT_LE(result.hlPlane, result.lhPlane);
    }
}

TEST_P(AdjustAxisTest, Case1SpreadBoundedByPlaneGap)
{
    const int axis = GetParam();
    const TileAdjuster adjuster(model());
    Rng rng(16 + axis);
    int case1_seen = 0;
    for (int trial = 0; trial < 200 && case1_seen < 10; ++trial) {
        const auto tile = randomTile(rng, 16, 0.3);
        const std::vector<double> ecc(16, 8.0);
        const auto result = adjuster.adjustAlongAxis(tile, ecc, axis);
        if (result.adjustCase != AdjustCase::C1 ||
            result.gamutClampedPixels > 0)
            continue;
        ++case1_seen;
        EXPECT_LE(channelSpread(result.adjusted, axis),
                  result.hlPlane - result.lhPlane + 1e-9);
    }
    EXPECT_GT(case1_seen, 0) << "no case-1 tiles sampled";
}

INSTANTIATE_TEST_SUITE_P(Axes, AdjustAxisTest, ::testing::Values(0, 2));

TEST(AdjustTile, PicksTheCheaperAxis)
{
    const TileAdjuster adjuster(model());
    Rng rng(30);
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, 0.05);
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc);
        const std::size_t chosen_bits = bdTileBits(result.adjusted);
        EXPECT_EQ(chosen_bits,
                  std::min(result.bitsRed, result.bitsBlue));
        if (result.chosenAxis == 0)
            EXPECT_LT(result.bitsRed, result.bitsBlue);
        else
            EXPECT_LE(result.bitsBlue, result.bitsRed);
    }
}

TEST(AdjustTile, NeverWorseThanUnadjustedBd)
{
    // The whole point (Sec. 3.1): adjustment reduces delta magnitudes,
    // so the BD cost of the adjusted tile is at most the original cost.
    const TileAdjuster adjuster(model());
    Rng rng(31);
    for (int trial = 0; trial < 100; ++trial) {
        const auto tile = randomTile(rng, 16, rng.uniform(0.0, 0.1));
        const std::vector<double> ecc(16, rng.uniform(6.0, 35.0));
        const auto result = adjuster.adjustTile(tile, ecc);
        EXPECT_LE(bdTileBits(result.adjusted), bdTileBits(tile) + 3)
            << "trial " << trial;
        // +3 bits of slack: quantization of moved colors can shift a
        // channel's range across a power-of-two boundary in rare cases.
    }
}

TEST(AdjustAlongAxis, RejectsBadInput)
{
    const TileAdjuster adjuster(model());
    const std::vector<Vec3> tile(4, Vec3(0.5, 0.5, 0.5));
    const std::vector<double> ecc(3, 10.0);
    EXPECT_THROW(adjuster.adjustAlongAxis(tile, ecc, 2),
                 std::invalid_argument);
    const std::vector<double> ecc4(4, 10.0);
    EXPECT_THROW(adjuster.adjustAlongAxis(tile, ecc4, 1),
                 std::invalid_argument);
}

TEST(AdjustAlongAxis, EmptyTileIsNoop)
{
    const TileAdjuster adjuster(model());
    const auto result = adjuster.adjustAlongAxis({}, {}, 2);
    EXPECT_TRUE(result.adjusted.empty());
}

TEST(AdjustTile, PlanarFlowMatchesPerAxisComposition)
{
    // The planar flow (ellipsoids shared across axes, fused both-axes
    // extrema, value-range cost) must reproduce the single-axis
    // path bit for bit, metadata included.
    const TileAdjuster adjuster(model());
    Rng rng(40);
    simd::TileSoA soa;
    for (int trial = 0; trial < 40; ++trial) {
        const auto tile = randomTile(rng, 16, rng.uniform(0.0, 0.15));
        std::vector<double> ecc;
        for (int i = 0; i < 16; ++i)
            ecc.push_back(rng.uniform(6.0, 35.0));

        const AxisAdjustment red =
            adjuster.adjustAlongAxis(tile, ecc, 0);
        const AxisAdjustment blue =
            adjuster.adjustAlongAxis(tile, ecc, 2);
        const std::size_t bits_red = bdTileBits(red.adjusted);
        const std::size_t bits_blue = bdTileBits(blue.adjusted);

        adjref::fillSoA(soa, tile, ecc);
        const TileOutcome out = adjuster.adjustTile(soa);

        EXPECT_EQ(out.caseRed, red.adjustCase);
        EXPECT_EQ(out.caseBlue, blue.adjustCase);
        EXPECT_EQ(out.bitsRed, bits_red);
        EXPECT_EQ(out.bitsBlue, bits_blue);
        const AxisAdjustment &chosen =
            out.chosenAxis == 0 ? red : blue;
        EXPECT_EQ(out.gamutClampedPixels, chosen.gamutClampedPixels);
        const std::vector<Vec3> adjusted =
            adjref::candidateLanes(soa, out.chosenAxis);
        ASSERT_EQ(adjusted.size(), tile.size());
        for (std::size_t i = 0; i < tile.size(); ++i)
            EXPECT_EQ(adjusted[i], chosen.adjusted[i])
                << "trial " << trial << " pixel " << i;
    }
}

TEST(AdjustTile, ArenaReuseAcrossTilesLeaksNoState)
{
    // One arena reused across tiles of varying size (including the
    // ragged edge-tile shapes) must match fresh-arena results.
    const TileAdjuster adjuster(model());
    Rng rng(41);
    simd::TileSoA reused;
    const std::size_t sizes[] = {16, 4, 16, 12, 8, 16, 2, 1, 16};
    for (const std::size_t n : sizes) {
        const auto tile = randomTile(rng, n, 0.08);
        const std::vector<double> ecc(n, rng.uniform(6.0, 35.0));

        adjref::fillSoA(reused, tile, ecc);
        const TileOutcome a = adjuster.adjustTile(reused);
        const std::vector<Vec3> a_adjusted =
            adjref::candidateLanes(reused, a.chosenAxis);

        simd::TileSoA fresh;
        adjref::fillSoA(fresh, tile, ecc);
        const TileOutcome b = adjuster.adjustTile(fresh);
        const std::vector<Vec3> b_adjusted =
            adjref::candidateLanes(fresh, b.chosenAxis);

        EXPECT_EQ(a.chosenAxis, b.chosenAxis);
        EXPECT_EQ(a.bitsRed, b.bitsRed);
        EXPECT_EQ(a.bitsBlue, b.bitsBlue);
        ASSERT_EQ(a_adjusted.size(), b_adjusted.size());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(a_adjusted[i], b_adjusted[i]);
    }
}

TEST(AdjustTile, RejectsSizeMismatch)
{
    const TileAdjuster adjuster(model());
    const std::vector<Vec3> tile(4, Vec3(0.5, 0.5, 0.5));
    const std::vector<double> ecc(3, 10.0);
    EXPECT_THROW(adjuster.adjustTile(tile, ecc), std::invalid_argument);
}

TEST(BdTileBits, FromCodesMatchesLinearPath)
{
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        const auto tile = randomTile(rng, 16, 0.1);
        std::vector<uint8_t> codes(tile.size() * 3);
        linearToSrgb8(tile.data(), tile.size(), codes.data());
        EXPECT_EQ(bdTileBitsFromCodes(codes.data(), tile.size()),
                  bdTileBits(tile));
    }
}

TEST(BdTileBits, MatchesManualAccounting)
{
    // Two-pixel tile with known sRGB values.
    std::vector<Vec3> tile{Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0)};
    // Flat tile: every channel has range 0 -> only meta+base per channel.
    EXPECT_EQ(bdTileBits(tile), 3u * (4 + 8));
}

} // namespace
} // namespace pce
