/**
 * @file
 * Tests for the sRGB gamma (paper Eq. 1) and DKL (Eq. 2) transforms.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "color/dkl.hh"
#include "color/srgb.hh"
#include "common/rng.hh"
#include "../support/srgb_test_util.hh"

namespace pce {
namespace {

TEST(Srgb, EndpointsMap)
{
    EXPECT_EQ(linearToSrgb8(0.0), 0);
    EXPECT_EQ(linearToSrgb8(1.0), 255);
    EXPECT_DOUBLE_EQ(srgb8ToLinear(uint8_t(0)), 0.0);
    EXPECT_NEAR(srgb8ToLinear(uint8_t(255)), 1.0, 1e-12);
}

TEST(Srgb, ClampsOutOfRangeInput)
{
    EXPECT_EQ(linearToSrgb8(-0.5), 0);
    EXPECT_EQ(linearToSrgb8(1.5), 255);
}

TEST(Srgb, ForwardIsMonotonic)
{
    double prev = -1.0;
    for (int i = 0; i <= 1000; ++i) {
        const double s = linearToSrgbContinuous(i / 1000.0);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(Srgb, AllCodesRoundTripExactly)
{
    // quantize(linearize(code)) must reproduce every 8-bit code: the
    // encoding domain is stable under decode/encode (BD relies on it).
    for (int code = 0; code < 256; ++code) {
        const double lin = srgb8ToLinear(static_cast<uint8_t>(code));
        EXPECT_EQ(linearToSrgb8(lin), code) << "code " << code;
    }
}

TEST(Srgb, LinearSegmentUsedNearBlack)
{
    // Below the cutoff the transform is linear with slope 12.92*255.
    const double x = 0.001;
    EXPECT_NEAR(linearToSrgbContinuous(x), 12.92 * x * 255.0, 1e-9);
}

TEST(Srgb, PowerSegmentAboveCutoff)
{
    const double x = 0.5;
    const double want = (1.055 * std::pow(x, 1.0 / 2.4) - 0.055) * 255.0;
    EXPECT_NEAR(linearToSrgbContinuous(x), want, 1e-9);
}

TEST(Srgb, ContinuousInverseMatchesForward)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform();
        const double s = linearToSrgbContinuous(x);
        EXPECT_NEAR(srgbToLinearContinuous(s), x, 1e-9);
    }
}

TEST(Srgb, VectorHelpersMatchScalar)
{
    const Vec3 rgb(0.1, 0.5, 0.9);
    uint8_t out[3];
    linearToSrgb8(rgb, out);
    EXPECT_EQ(out[0], linearToSrgb8(0.1));
    EXPECT_EQ(out[1], linearToSrgb8(0.5));
    EXPECT_EQ(out[2], linearToSrgb8(0.9));
    const Vec3 back = srgb8ToLinear(out);
    EXPECT_NEAR(back.x, srgb8ToLinear(out[0]), 1e-15);
}

TEST(Srgb, QuantizationErrorBounded)
{
    // One quantization step of error in linear space, at most.
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform();
        const double back = srgb8ToLinear(linearToSrgb8(x));
        // Derivative of inverse gamma is <= ~0.011 per code near white;
        // bound conservatively by 0.012.
        EXPECT_NEAR(back, x, 0.012);
    }
}

TEST(SrgbLut, MatchesReferenceOnDenseSweep)
{
    // The table-driven forward map must be bit-exact with the pow
    // reference. 2^20 evenly spaced inputs cover every LUT bucket ~256
    // times over.
    const int n = 1 << 20;
    for (int i = 0; i <= n; ++i) {
        const double x = static_cast<double>(i) / n;
        ASSERT_EQ(linearToSrgb8(x), linearToSrgb8Reference(x))
            << "x = " << x;
    }
}

TEST(SrgbLut, MatchesReferenceAroundEveryCodeBoundary)
{
    // The half-code rounding thresholds are where an off-by-one-ulp
    // table would diverge: probe a ulp neighborhood of each of them.
    for (int code = 1; code < 256; ++code) {
        // Forward and continuous-inverse are exact inverses, so this
        // is the continuous input that quantizes right at the boundary.
        double x = srgbToLinearContinuous(code - 0.5);
        for (int step = 0; step < 200; ++step)
            x = std::nextafter(x, 0.0);
        for (int step = 0; step < 400; ++step) {
            ASSERT_EQ(linearToSrgb8(x), linearToSrgb8Reference(x))
                << "code " << code << " x = " << x;
            x = std::nextafter(x, 2.0);
        }
    }
}

TEST(SrgbLut, MatchesReferenceOnRandomAndEdgeInputs)
{
    Rng rng(6);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.uniform(-0.25, 1.25);
        ASSERT_EQ(linearToSrgb8(x), linearToSrgb8Reference(x))
            << "x = " << x;
    }
    const double edges[] = {0.0,   1.0,    -0.0,   1e-300, 5e-324,
                            2.0,   -3.0,   0.5,    1.0 - 1e-16,
                            0.0031308, 0.00313081, 1e-9};
    for (const double x : edges)
        EXPECT_EQ(linearToSrgb8(x), linearToSrgb8Reference(x))
            << "x = " << x;
}

TEST(SrgbLut, ForwardIsANonDecreasingStepFunction)
{
    // The tile adjuster's candidate cost (bdTileBitsFromRange) takes a
    // channel's code range from its value range, which holds only if
    // linearToSrgb8 never steps down. Find each code's threshold (the
    // smallest double the reference maps to >= c) by bisection
    // (tests/support/srgb_test_util.hh), then check the LUT steps
    // from c - 1 to c exactly there and the thresholds strictly
    // increase. With the sweeps above pinning the LUT to the reference
    // between thresholds, the table is the monotone step function
    // #{c : threshold[c] <= x} on (0, 1).
    double prev = 0.0;
    for (int c = 1; c < 256; ++c) {
        const double t = testsrgb::codeThreshold(c);
        EXPECT_GT(t, prev) << "code " << c;
        EXPECT_EQ(linearToSrgb8(t), c) << "code " << c;
        EXPECT_EQ(linearToSrgb8(std::nextafter(t, 0.0)), c - 1)
            << "code " << c;
        prev = t;
    }
    // Outside (0, 1): NaN and everything not above 0 give 0, everything
    // from 1 up gives 255.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(linearToSrgb8(std::numeric_limits<double>::quiet_NaN()), 0);
    EXPECT_EQ(linearToSrgb8(-inf), 0);
    EXPECT_EQ(linearToSrgb8(-0.0), 0);
    EXPECT_EQ(linearToSrgb8(std::numeric_limits<double>::denorm_min()),
              linearToSrgb8Reference(
                  std::numeric_limits<double>::denorm_min()));
    EXPECT_EQ(linearToSrgb8(inf), 255);
}

TEST(SrgbLut, InverseTableMatchesContinuousForAllCodes)
{
    for (int code = 0; code < 256; ++code) {
        const double want =
            srgbToLinearContinuous(static_cast<double>(code));
        EXPECT_EQ(srgb8ToLinear(static_cast<uint8_t>(code)), want)
            << "code " << code;
    }
}

TEST(SrgbLut, BatchedConversionMatchesScalar)
{
    Rng rng(7);
    std::vector<Vec3> pixels;
    for (int i = 0; i < 257; ++i)
        pixels.emplace_back(rng.uniform(-0.1, 1.1), rng.uniform(),
                            rng.uniform());
    std::vector<uint8_t> codes(pixels.size() * 3);
    linearToSrgb8(pixels.data(), pixels.size(), codes.data());
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        EXPECT_EQ(codes[3 * i + 0], linearToSrgb8(pixels[i].x));
        EXPECT_EQ(codes[3 * i + 1], linearToSrgb8(pixels[i].y));
        EXPECT_EQ(codes[3 * i + 2], linearToSrgb8(pixels[i].z));
    }
}

TEST(Dkl, MatrixMatchesPaperCoefficients)
{
    const Mat3 &m = rgb2dklMatrix();
    EXPECT_DOUBLE_EQ(m(0, 0), 0.14);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.17);
    EXPECT_DOUBLE_EQ(m(0, 2), 0.00);
    EXPECT_DOUBLE_EQ(m(1, 0), -0.21);
    EXPECT_DOUBLE_EQ(m(1, 1), -0.71);
    EXPECT_DOUBLE_EQ(m(1, 2), -0.07);
    EXPECT_DOUBLE_EQ(m(2, 0), 0.21);
    EXPECT_DOUBLE_EQ(m(2, 1), 0.72);
    EXPECT_DOUBLE_EQ(m(2, 2), 0.07);
}

TEST(Dkl, TransformIsInvertible)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const Vec3 rgb(rng.uniform(), rng.uniform(), rng.uniform());
        const Vec3 back = dklToRgb(rgbToDkl(rgb));
        EXPECT_NEAR(back.x, rgb.x, 1e-9);
        EXPECT_NEAR(back.y, rgb.y, 1e-9);
        EXPECT_NEAR(back.z, rgb.z, 1e-9);
    }
}

TEST(Dkl, InverseMatrixIsTrueInverse)
{
    const Mat3 prod = rgb2dklMatrix() * dkl2rgbMatrix();
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-9);
}

TEST(Dkl, TransformIsLinear)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const Vec3 a(rng.uniform(), rng.uniform(), rng.uniform());
        const Vec3 b(rng.uniform(), rng.uniform(), rng.uniform());
        const Vec3 lhs = rgbToDkl(a + b);
        const Vec3 rhs = rgbToDkl(a) + rgbToDkl(b);
        EXPECT_NEAR(lhs.x, rhs.x, 1e-12);
        EXPECT_NEAR(lhs.y, rhs.y, 1e-12);
        EXPECT_NEAR(lhs.z, rhs.z, 1e-12);
    }
}

TEST(Dkl, BlackMapsToOrigin)
{
    const Vec3 dkl = rgbToDkl(Vec3(0.0, 0.0, 0.0));
    EXPECT_DOUBLE_EQ(dkl.x, 0.0);
    EXPECT_DOUBLE_EQ(dkl.y, 0.0);
    EXPECT_DOUBLE_EQ(dkl.z, 0.0);
}

TEST(Dkl, GamutExtentsMatchAnalysis)
{
    // The axis ranges documented in discrimination.cc: K1 in [0,0.31],
    // K2 in [-0.99,0], K3 in [0,1.0], attained at cube corners.
    const Vec3 white = rgbToDkl(Vec3(1.0, 1.0, 1.0));
    EXPECT_NEAR(white.x, 0.31, 1e-12);
    EXPECT_NEAR(white.y, -0.99, 1e-12);
    EXPECT_NEAR(white.z, 1.00, 1e-12);
}

} // namespace
} // namespace pce
