/**
 * @file
 * Bit-exactness of the SIMD kernel layer (src/simd) across dispatch
 * levels, plus the FOVE_SIMD override.
 *
 * The contract under test is equality, not tolerance: every kernel at
 * every level available on this host must reproduce the scalar
 * datapath (model/quadric code) double for double, and the full tile
 * flow must reproduce the Vec3 reference flow
 * (tests/core/adjust_reference.hh) for every model and extrema
 * backend. Scalar is always available; every vector level up to the
 * best one the host CPU has (AVX2, AVX-512) runs too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bd/bd_codec.hh"
#include "color/srgb.hh"
#include "common/rng.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "hw/fixed_datapath.hh"
#include "perception/adaptation.hh"
#include "perception/discrimination.hh"
#include "simd/tile_kernels.hh"
#include "simd/tile_soa.hh"
#include "../core/adjust_reference.hh"
#include "../support/srgb_test_util.hh"

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

/** Every dispatch level this host can run: all up to the detected one. */
std::vector<simd::SimdLevel>
availableLevels()
{
    std::vector<simd::SimdLevel> levels;
    for (const simd::SimdLevel level :
         {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2,
          simd::SimdLevel::Avx512})
        if (level <= simd::detectedSimdLevel())
            levels.push_back(level);
    return levels;
}

/** A random tile around a base color, optionally near the gamut edge. */
std::vector<Vec3>
randomTile(Rng &rng, std::size_t n, double spread, bool gamut_edge)
{
    std::vector<Vec3> tile;
    const Vec3 base = gamut_edge
                          ? Vec3(rng.uniform(), rng.uniform(),
                                 rng.uniform(0.9, 1.0))
                          : Vec3(rng.uniform(0.15, 0.85),
                                 rng.uniform(0.15, 0.85),
                                 rng.uniform(0.15, 0.85));
    for (std::size_t i = 0; i < n; ++i) {
        Vec3 p = base + Vec3(rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread),
                             rng.uniform(-spread, spread));
        tile.push_back(p.clamped(0.0, 1.0));
    }
    return tile;
}

/** Bitwise equality (NaN payloads and signed zeros included). */
bool
sameBits(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

/**
 * Run one tile through @p adjuster (planar entry, both std::vector
 * overloads) and through the Vec3 reference flow with the same model
 * and extrema backend; every outcome field and every output double
 * must be identical.
 */
void
expectMatchesReference(const TileAdjuster &adjuster, const ExtremaFn &fn,
                       const std::vector<Vec3> &tile,
                       const std::vector<double> &ecc,
                       simd::TileSoA &soa, const std::string &where)
{
    SCOPED_TRACE(where);
    const DiscriminationModel &m = adjuster.model();
    const TileAdjustment ref = adjref::adjustTile(m, fn, tile, ecc);

    adjref::fillSoA(soa, tile, ecc);
    const TileOutcome a = adjuster.adjustTile(soa);
    EXPECT_EQ(a.chosenAxis, ref.chosenAxis);
    EXPECT_EQ(a.chosenCase, ref.chosenCase);
    EXPECT_EQ(a.caseRed, ref.caseRed);
    EXPECT_EQ(a.caseBlue, ref.caseBlue);
    EXPECT_EQ(a.bitsRed, ref.bitsRed);
    EXPECT_EQ(a.bitsBlue, ref.bitsBlue);
    EXPECT_EQ(a.gamutClampedPixels, ref.gamutClampedPixels);
    const std::vector<Vec3> chosen =
        adjref::candidateLanes(soa, a.chosenAxis);
    ASSERT_EQ(chosen.size(), ref.adjusted.size());
    for (std::size_t i = 0; i < chosen.size(); ++i)
        EXPECT_TRUE(sameBits(chosen[i], ref.adjusted[i])) << "pixel " << i;

    const TileAdjustment v = adjuster.adjustTile(tile, ecc);
    EXPECT_EQ(v.chosenAxis, ref.chosenAxis);
    EXPECT_EQ(v.bitsRed, ref.bitsRed);
    EXPECT_EQ(v.bitsBlue, ref.bitsBlue);
    EXPECT_EQ(v.gamutClampedPixels, ref.gamutClampedPixels);
    ASSERT_EQ(v.adjusted.size(), ref.adjusted.size());
    for (std::size_t i = 0; i < v.adjusted.size(); ++i)
        EXPECT_TRUE(sameBits(v.adjusted[i], ref.adjusted[i]))
            << "pixel " << i;

    for (const int axis : {0, 2}) {
        const AxisAdjustment ra =
            adjref::adjustAlongAxis(m, fn, tile, ecc, axis);
        const AxisAdjustment aa =
            adjuster.adjustAlongAxis(tile, ecc, axis);
        EXPECT_EQ(aa.adjustCase, ra.adjustCase) << "axis " << axis;
        EXPECT_TRUE(std::memcmp(&aa.hlPlane, &ra.hlPlane,
                                sizeof(double)) == 0)
            << "axis " << axis;
        EXPECT_TRUE(std::memcmp(&aa.lhPlane, &ra.lhPlane,
                                sizeof(double)) == 0)
            << "axis " << axis;
        EXPECT_EQ(aa.gamutClampedPixels, ra.gamutClampedPixels)
            << "axis " << axis;
        ASSERT_EQ(aa.adjusted.size(), ra.adjusted.size());
        for (std::size_t i = 0; i < aa.adjusted.size(); ++i)
            EXPECT_TRUE(sameBits(aa.adjusted[i], ra.adjusted[i]))
                << "axis " << axis << " pixel " << i;
    }
}

/**
 * Sweep ragged tile sizes, mid-gamut, gamut-edge and out-of-gamut
 * tiles, and random spreads/eccentricities through
 * expectMatchesReference. The sizes cover every 8-lane tail (n mod 8 =
 * 0..7) and n = 9, whose 16-double stride leaves a 4-lane block wholly
 * in padding.
 */
void
sweepAgainstReference(const TileAdjuster &adjuster, const ExtremaFn &fn,
                      uint64_t seed, int trials)
{
    Rng rng(seed);
    simd::TileSoA soa;  // reused across sizes: no state may leak
    for (const std::size_t n :
         {16u, 4u, 1u, 13u, 64u, 2u, 3u, 6u, 7u, 9u}) {
        for (int trial = 0; trial < trials; ++trial) {
            auto tile = randomTile(rng, n, rng.uniform(0.0, 0.3),
                                   trial % 2 == 0);
            if (trial % 3 == 2)
                tile[n / 2].z = 1.02;  // out of gamut: stage 1 clamps
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(5.0, 40.0));
            expectMatchesReference(adjuster, fn, tile, ecc, soa,
                                   "n " + std::to_string(n) +
                                       " trial " +
                                       std::to_string(trial));
        }
    }
}

class SimdLevelTest
    : public ::testing::TestWithParam<simd::SimdLevel>
{};

TEST_P(SimdLevelTest, EllipsoidKernelMatchesModelExactly)
{
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(101);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 7u, 1u, 33u}) {
        for (int trial = 0; trial < 25; ++trial) {
            const auto tile = randomTile(rng, n, 0.2, trial % 3 == 0);
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(0.0, 40.0));
            adjref::fillSoA(soa, tile, ecc);
            k.ellipsoids(soa, model().params());
            for (std::size_t i = 0; i < n; ++i) {
                const Ellipsoid e = model().ellipsoidFor(
                    tile[i].clamped(0.0, 1.0), ecc[i]);
                EXPECT_EQ(soa.lane(simd::kCx)[i], e.centerDkl.x);
                EXPECT_EQ(soa.lane(simd::kCy)[i], e.centerDkl.y);
                EXPECT_EQ(soa.lane(simd::kCz)[i], e.centerDkl.z);
                EXPECT_EQ(soa.lane(simd::kAx)[i], e.semiAxes.x);
                EXPECT_EQ(soa.lane(simd::kAy)[i], e.semiAxes.y);
                EXPECT_EQ(soa.lane(simd::kAz)[i], e.semiAxes.z);
            }
        }
    }
}

TEST_P(SimdLevelTest, ExtremaKernelMatchesQuadricDatapathExactly)
{
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(202);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 5u, 2u}) {
        for (int trial = 0; trial < 25; ++trial) {
            const auto tile = randomTile(rng, n, 0.25, false);
            std::vector<double> ecc;
            for (std::size_t i = 0; i < n; ++i)
                ecc.push_back(rng.uniform(0.0, 40.0));
            adjref::fillSoA(soa, tile, ecc);
            k.ellipsoids(soa, model().params());
            k.extremaBoth(soa);
            for (std::size_t i = 0; i < n; ++i) {
                const Ellipsoid e = model().ellipsoidFor(
                    tile[i].clamped(0.0, 1.0), ecc[i]);
                ExtremaPair red;
                ExtremaPair blue;
                extremaBothAxes(e, red, blue);
                EXPECT_EQ(soa.lane(simd::kRedHighX)[i], red.high.x);
                EXPECT_EQ(soa.lane(simd::kRedHighY)[i], red.high.y);
                EXPECT_EQ(soa.lane(simd::kRedHighZ)[i], red.high.z);
                EXPECT_EQ(soa.lane(simd::kRedLowX)[i], red.low.x);
                EXPECT_EQ(soa.lane(simd::kRedLowY)[i], red.low.y);
                EXPECT_EQ(soa.lane(simd::kRedLowZ)[i], red.low.z);
                EXPECT_EQ(soa.lane(simd::kBlueHighX)[i], blue.high.x);
                EXPECT_EQ(soa.lane(simd::kBlueHighY)[i], blue.high.y);
                EXPECT_EQ(soa.lane(simd::kBlueHighZ)[i], blue.high.z);
                EXPECT_EQ(soa.lane(simd::kBlueLowX)[i], blue.low.x);
                EXPECT_EQ(soa.lane(simd::kBlueLowY)[i], blue.low.y);
                EXPECT_EQ(soa.lane(simd::kBlueLowZ)[i], blue.low.z);
            }
        }
    }
}

TEST_P(SimdLevelTest, TileFlowMatchesReferenceExactly)
{
    // The analytic model with the default extrema datapath: every
    // stage runs as a dispatched kernel at this level.
    const TileAdjuster adjuster(model(), {}, GetParam());
    sweepAgainstReference(adjuster, {}, 303, 30);
}

TEST_P(SimdLevelTest, ExtremaOverrideMatchesReferenceExactly)
{
    // An override evaluating the same Eq. 11-13 datapath per axis runs
    // stage 2 through the per-pixel backend loop; the result must not
    // differ from the fused kernel's.
    const ExtremaFn fn = [](const Ellipsoid &e, int axis) {
        return extremaAlongAxis(e, axis);
    };
    const TileAdjuster adjuster(model(), fn, GetParam());
    sweepAgainstReference(adjuster, fn, 304, 10);
}

TEST_P(SimdLevelTest, FixedPointExtremaMatchesReferenceExactly)
{
    // The hardware-fidelity ablation's backend: the fixed-point CAU
    // datapath at 16 fractional bits.
    const ExtremaFn fn = [](const Ellipsoid &e, int axis) {
        return extremaAlongAxisFixed(e, axis, FixedDatapathConfig{16});
    };
    const TileAdjuster adjuster(model(), fn, GetParam());
    sweepAgainstReference(adjuster, fn, 305, 10);
}

TEST_P(SimdLevelTest, ScaledModelMatchesReferenceExactly)
{
    // A wrapped model cannot use the analytic stage-1 kernel; stage 1
    // loops over the model per pixel, stages 2-3 stay dispatched.
    const ScaledDiscriminationModel scaled(model(), 1.5);
    const TileAdjuster adjuster(scaled, {}, GetParam());
    sweepAgainstReference(adjuster, {}, 306, 10);
}

TEST_P(SimdLevelTest, DarkAdaptationModelMatchesReferenceExactly)
{
    const DarkAdaptationModel dark(model(), 2.0);
    ASSERT_GT(dark.boost(), 1.0);
    const TileAdjuster adjuster(dark, {}, GetParam());
    sweepAgainstReference(adjuster, {}, 307, 10);
}

TEST_P(SimdLevelTest, TileCostMatchesCodePath)
{
    // The move kernel's value range, costed by bdTileBitsFromRange, vs.
    // the materialized-codes path: the bit cost and the per-channel
    // code range it leaves for the frame pass, of both candidates. With
    // high == low in the extrema lanes every pixel is degenerate, so
    // its candidate is the pixel itself and the kernel stores the
    // values below unchanged. They hit every branch of the quantizer
    // and the range reduction: NaN, +/-inf, -0.0, a denormal, code
    // thresholds and one ulp below them, 0 and 1, out-of-gamut values,
    // and whole-NaN channels. In odd trials every even pixel gets a
    // real extrema vector, and the axis extrema make the collapse plane
    // out of gamut (2.0; 2.025 for n = 1), which sends every block
    // through the gamut-clamp store instead.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> special = {
        nan, inf, -inf, -0.0, 0.0, 1.0, std::nextafter(1.0, 0.0),
        std::numeric_limits<double>::denorm_min(), -0.25, 1.25};
    for (const int c : {1, 2, 11, 128, 254, 255}) {
        const double t = testsrgb::codeThreshold(c);
        special.push_back(t);
        special.push_back(std::nextafter(t, 0.0));
    }
    Rng rng(404);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 3u, 9u, 1u, 6u, 2u, 14u, 4u, 5u, 7u}) {
        for (int trial = 0; trial < 40; ++trial) {
            soa.resize(n);
            const bool clamp_path = trial % 2 == 1;
            for (const int axis : {0, 2}) {
                const bool red = axis == 0;
                for (int ch = 0; ch < 3; ++ch) {
                    double *p = soa.lane(simd::kPx + ch);
                    double *hi = soa.lane((red ? simd::kRedHighX
                                               : simd::kBlueHighX) +
                                          ch);
                    double *lo = soa.lane((red ? simd::kRedLowX
                                               : simd::kBlueLowX) +
                                          ch);
                    // Tiles mostly within a few codes of each other
                    // (the common case) or across the whole range.
                    const double base = rng.uniform(-0.1, 1.1);
                    const double spread = trial % 4 < 2 ? 0.01 : 1.2;
                    const bool axis_ch = ch == axis;
                    for (std::size_t i = 0; i < n; ++i) {
                        p[i] = rng.uniform() < 0.2
                                   ? special[rng.uniformInt(special.size())]
                                   : base + rng.uniform(-spread, spread);
                        const bool moves = clamp_path && i % 2 == 0;
                        lo[i] = axis_ch && clamp_path
                                    ? (moves ? 1.9 : 2.0)
                                    : rng.uniform();
                        hi[i] = lo[i] + (moves ? 0.25 : 0.0);
                    }
                    const int lane = (red ? simd::kOutRedX
                                          : simd::kOutBlueX) +
                                     ch;
                    if ((lane + trial) % 7 == 0)
                        std::fill(p, p + n, nan);
                    // Stale padding must not reach the range.
                    for (std::size_t i = n; i < soa.stride; ++i)
                        p[i] = hi[i] = lo[i] = i % 2 ? nan : -7.0;
                }
                const simd::AxisMove move = k.moveAxis[red ? 0 : 1](soa);
                const simd::CandidateRange &range = move.range;
                if (clamp_path)
                    EXPECT_TRUE(move.collapse);
                else
                    EXPECT_EQ(range.gamutClamped, 0);

                std::vector<uint8_t> codes(n * 3);
                linearToSrgb8Planar(soa.candidate(axis, 0),
                                    soa.candidate(axis, 1),
                                    soa.candidate(axis, 2), n,
                                    codes.data());
                simd::CandidateCodes &out = soa.codesOf(axis);
                EXPECT_EQ(bdTileBitsFromRange(range, n, out),
                          bdTileBitsFromCodes(codes.data(), n))
                    << "n " << n << " trial " << trial << " axis "
                    << axis;
                for (int c = 0; c < 3; ++c) {
                    uint8_t lo = 255;
                    uint8_t hi = 0;
                    for (std::size_t i = 0; i < n; ++i) {
                        lo = std::min(lo, codes[3 * i + c]);
                        hi = std::max(hi, codes[3 * i + c]);
                    }
                    EXPECT_EQ(out.lo[c], lo)
                        << "n " << n << " trial " << trial << " ch " << c;
                    EXPECT_EQ(out.hi[c], hi)
                        << "n " << n << " trial " << trial << " ch " << c;
                }
            }
        }
    }
}

TEST_P(SimdLevelTest, MoveKernelReducesPlanesLikeTheSequentialFold)
{
    // The HL/LH reduction of the per-axis move kernel against the Vec3
    // reference (adjref::moveAlongAxis: the sequential std::max /
    // std::min fold from -1e300 / 1e300, then the move). The axis
    // extrema lanes are filled directly with what a vector reduction
    // can get wrong: +/-0 ties in both orders (in one block or across
    // blocks), NaN lanes, all-NaN lanes, values at and beyond +/-1e300,
    // and stale padding. The planes must match bit for bit (memcmp: the
    // sign of a zero counts), and so must the case, the gamut count and
    // every candidate double.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> special = {
        0.0, -0.0, nan, 1e300, -1e300, inf, -inf,
        std::nextafter(1e300, 0.0), std::nextafter(-1e300, 0.0)};
    Rng rng(808);
    simd::TileSoA soa;
    for (const std::size_t n :
         {16u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u,
          14u, 15u}) {
        for (int trial = 0; trial < 60; ++trial) {
            const int pattern = trial % 6;
            soa.resize(n);
            for (const int axis : {0, 2}) {
                const bool red = axis == 0;
                std::vector<Vec3> pixels(n);
                std::vector<ExtremaPair> extrema(n);
                for (std::size_t i = 0; i < n; ++i) {
                    pixels[i] = Vec3(rng.uniform(), rng.uniform(),
                                     rng.uniform());
                    for (int c = 0; c < 3; ++c) {
                        const double lo = rng.uniform(-0.2, 1.0);
                        extrema[i].low[c] = lo;
                        extrema[i].high[c] = lo + rng.uniform(0.0, 0.4);
                    }
                    double &low = extrema[i].low[axis];
                    double &high = extrema[i].high[axis];
                    switch (pattern) {
                    case 0:  // zero ties: the first zero's sign stays
                        low = rng.uniform() < 0.5 ? -rng.uniform() : 0.0;
                        high = rng.uniform() < 0.5 ? 1.0 + rng.uniform()
                                                   : 0.0;
                        if (low == 0.0 && rng.uniform() < 0.5)
                            low = -0.0;
                        if (high == 0.0 && rng.uniform() < 0.5)
                            high = -0.0;
                        break;
                    case 1:  // specials anywhere
                        if (rng.uniform() < 0.5)
                            low = special[rng.uniformInt(special.size())];
                        if (rng.uniform() < 0.5)
                            high = special[rng.uniformInt(special.size())];
                        break;
                    case 2:  // NaN lanes among ordinary ones
                        if (rng.uniform() < 0.4)
                            low = nan;
                        if (rng.uniform() < 0.4)
                            high = nan;
                        break;
                    case 3:  // every lane NaN: the planes stay +/-1e300
                        low = nan;
                        high = nan;
                        break;
                    case 4:  // at and beyond the fold's start values
                        low = rng.uniform() < 0.5 ? -1e300 : -inf;
                        high = rng.uniform() < 0.5 ? 1e300 : inf;
                        break;
                    default:  // ordinary extrema
                        break;
                    }
                }
                if (pattern == 0 && n >= 2) {
                    // A +/-0 pair in a fixed order, first lane and a
                    // lane in a later block.
                    const std::size_t second = n - 1;
                    const bool plus_first = trial % 12 < 6;
                    extrema[0].low[axis] = plus_first ? 0.0 : -0.0;
                    extrema[second].low[axis] = plus_first ? -0.0 : 0.0;
                    extrema[0].high[axis] = plus_first ? -0.0 : 0.0;
                    extrema[second].high[axis] = plus_first ? 0.0 : -0.0;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    soa.lane(simd::kPx)[i] = pixels[i].x;
                    soa.lane(simd::kPy)[i] = pixels[i].y;
                    soa.lane(simd::kPz)[i] = pixels[i].z;
                    for (int c = 0; c < 3; ++c) {
                        soa.lane((red ? simd::kRedLowX : simd::kBlueLowX) +
                                 c)[i] = extrema[i].low[c];
                        soa.lane((red ? simd::kRedHighX
                                      : simd::kBlueHighX) +
                                 c)[i] = extrema[i].high[c];
                    }
                }
                // Stale padding that would win either fold.
                for (std::size_t i = n; i < soa.stride; ++i) {
                    soa.lane(red ? simd::kRedLowX : simd::kBlueLowZ)[i] =
                        i % 2 ? 1e308 : 0.0;
                    soa.lane(red ? simd::kRedHighX : simd::kBlueHighZ)[i] =
                        i % 2 ? -1e308 : -0.0;
                }

                const AxisAdjustment ref =
                    adjref::moveAlongAxis(pixels, extrema, axis);
                const simd::AxisMove move = k.moveAxis[red ? 0 : 1](soa);
                const std::string where = "n " + std::to_string(n) +
                                          " trial " +
                                          std::to_string(trial) +
                                          " axis " + std::to_string(axis);
                EXPECT_EQ(std::memcmp(&move.hlPlane, &ref.hlPlane,
                                      sizeof(double)),
                          0)
                    << where << ": hl " << move.hlPlane << " vs "
                    << ref.hlPlane;
                EXPECT_EQ(std::memcmp(&move.lhPlane, &ref.lhPlane,
                                      sizeof(double)),
                          0)
                    << where << ": lh " << move.lhPlane << " vs "
                    << ref.lhPlane;
                EXPECT_EQ(move.collapse, ref.adjustCase == AdjustCase::C2)
                    << where;
                EXPECT_EQ(move.range.gamutClamped, ref.gamutClampedPixels)
                    << where;
                const std::vector<Vec3> cand =
                    adjref::candidateLanes(soa, axis);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_TRUE(sameBits(cand[i], ref.adjusted[i]))
                        << where << " pixel " << i;
            }
        }
    }
}

TEST_P(SimdLevelTest, QuantizeKernelMatchesPlanarQuantizer)
{
    // Stage 4 against linearToSrgb8Planar on hostile values: NaN, +/-0,
    // +/-inf, denormals, values above 1 and below 0, every code
    // threshold and one ulp below it, at every tail length, with the
    // candidate's code range anywhere from lo == hi to 0..255 (so both
    // the threshold count and the table lookup of wide channels run).
    // The kernel gets the exact code range, as bdTileBitsFromRange
    // leaves it, writes into rows of a wider buffer, and must leave
    // every byte outside the tile untouched.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    const Srgb8Table &table = srgb8Table();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> special = {
        nan, -nan, 0.0, -0.0, inf, -inf, 1.0, std::nextafter(1.0, 0.0),
        std::nextafter(1.0, 2.0), 2.0, 1e300, -1e-300, -0.5,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min()};
    std::vector<double> thresholds;
    for (int c = 1; c < 256; ++c) {
        const double t = testsrgb::codeThreshold(c);
        thresholds.push_back(t);
        thresholds.push_back(std::nextafter(t, 0.0));
    }
    // Code spans: single codes, the window's edge, wide ranges.
    const int spans[] = {0, 1, 2, 3, 4, 5, 6, 8, 17, 64, 200, 255};
    Rng rng(909);
    simd::TileSoA soa;
    std::size_t sweep = 0;  // next threshold of the in-order sweep
    for (const std::size_t n :
         {16u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u, 13u,
          14u, 15u}) {
        for (int trial = 0; trial < 80; ++trial) {
            soa.resize(n);
            const int axis = trial % 2 == 0 ? 0 : 2;
            const bool red = axis == 0;
            for (int ch = 0; ch < 3; ++ch) {
                double *lane =
                    soa.lane((red ? simd::kOutRedX : simd::kOutBlueX) + ch);
                const int span = spans[rng.uniformInt(std::size(spans))];
                const int lo = static_cast<int>(rng.uniformInt(256 - span));
                for (std::size_t i = 0; i < n; ++i) {
                    const double u = rng.uniform();
                    if (trial % 4 == 3) {
                        // The thresholds in order, one per lane.
                        lane[i] = thresholds[sweep++ % thresholds.size()];
                    } else if (trial % 8 == 6) {
                        // The top codes only, with values at and far
                        // above 1: a narrow range whose window reaches
                        // past code 255.
                        const double top[] = {thresholds[2 * 252],
                                              thresholds[2 * 254 + 1],
                                              1.0, 2.0, 1e300, inf};
                        lane[i] = top[rng.uniformInt(std::size(top))];
                    } else if (trial % 4 == 2 && u < 0.3) {
                        lane[i] = special[rng.uniformInt(special.size())];
                    } else {
                        // A value whose code lies in [lo, lo + span]:
                        // on a threshold, one ulp below the next one,
                        // or between.
                        const int c = lo + static_cast<int>(
                                               rng.uniformInt(span + 1));
                        const double t0 =
                            c == 0 ? 0.0 : thresholds[2 * (c - 1)];
                        const double t1 =
                            c == 255 ? 1.0 : thresholds[2 * c + 1];
                        lane[i] = u < 0.3   ? t0
                                  : u < 0.6 ? t1
                                            : t0 + (t1 - t0) * rng.uniform();
                    }
                }
                // Stale padding must not reach the output.
                for (std::size_t i = n; i < soa.stride; ++i)
                    lane[i] = i % 2 ? nan : 1e300;
            }
            std::vector<uint8_t> want(3 * n);
            linearToSrgb8Planar(soa.candidate(axis, 0),
                                soa.candidate(axis, 1),
                                soa.candidate(axis, 2), n, want.data());
            simd::CandidateCodes &codes = soa.codesOf(axis);
            for (int ch = 0; ch < 3; ++ch) {
                codes.lo[ch] = 255;
                codes.hi[ch] = 0;
                for (std::size_t i = 0; i < n; ++i) {
                    codes.lo[ch] = std::min(codes.lo[ch], want[3 * i + ch]);
                    codes.hi[ch] = std::max(codes.hi[ch], want[3 * i + ch]);
                }
            }

            // Rows of `width` pixels (the last may be partial) in a
            // buffer with guard bytes around and between the rows.
            const std::size_t width = 1 + rng.uniformInt(n);
            const std::size_t rows = (n + width - 1) / width;
            const std::size_t row_bytes = 3 * width + 7;
            const std::size_t offset = 5;
            std::vector<uint8_t> buf(offset + rows * row_bytes + 9, 0xA5);
            k.quantize(soa, axis, table, width, buf.data() + offset,
                       row_bytes);
            std::vector<uint8_t> expect(buf.size(), 0xA5);
            for (std::size_t i = 0; i < n; ++i)
                for (int ch = 0; ch < 3; ++ch)
                    expect[offset + (i / width) * row_bytes +
                           3 * (i % width) + ch] = want[3 * i + ch];
            ASSERT_EQ(buf, expect)
                << "n " << n << " trial " << trial << " width " << width
                << " lo/hi " << int(codes.lo[0]) << "/"
                << int(codes.hi[0]) << " " << int(codes.lo[1]) << "/"
                << int(codes.hi[1]) << " " << int(codes.lo[2]) << "/"
                << int(codes.hi[2]);
        }
    }
}

TEST_P(SimdLevelTest, NanPixelsCountAndPlaceIdentically)
{
    // A NaN input pixel (upstream renderer bug) must flow through the
    // kernels exactly like the reference: same gamut-clamp count (C++
    // != is unordered-true, so NaN movements count) and bitwise-
    // identical outputs (NaN payloads included — compare
    // representations, not values).
    const TileAdjuster adjuster(model(), {}, GetParam());
    Rng rng(707);
    simd::TileSoA soa;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int trial = 0; trial < 10; ++trial) {
        auto tile = randomTile(rng, 16, 0.1, trial % 2 == 0);
        tile[3].y = nan;
        tile[8] = Vec3(nan, nan, nan);
        const std::vector<double> ecc(16, 25.0);
        expectMatchesReference(adjuster, {}, tile, ecc, soa,
                               "trial " + std::to_string(trial));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SimdLevelTest, ::testing::ValuesIn(availableLevels()),
    [](const ::testing::TestParamInfo<simd::SimdLevel> &info) {
        return simd::simdLevelName(info.param);
    });

TEST(SimdDispatch, FoveSimdOffForcesScalar)
{
    ASSERT_EQ(setenv("FOVE_SIMD", "off", 1), 0);
    EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::Scalar);
    // A TileAdjuster built under the override runs the scalar kernels
    // and still matches the default-dispatch adjuster bit for bit.
    const TileAdjuster forced(model());
    EXPECT_EQ(forced.simdLevel(), simd::SimdLevel::Scalar);
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);
    EXPECT_EQ(simd::activeSimdLevel(), simd::detectedSimdLevel());

    Rng rng(505);
    const auto tile = randomTile(rng, 16, 0.1, false);
    const std::vector<double> ecc(16, 20.0);
    const TileAdjuster active(model());
    const TileAdjustment a = forced.adjustTile(tile, ecc);
    const TileAdjustment b = active.adjustTile(tile, ecc);
    EXPECT_EQ(a.bitsRed, b.bitsRed);
    EXPECT_EQ(a.bitsBlue, b.bitsBlue);
    for (std::size_t i = 0; i < tile.size(); ++i)
        EXPECT_EQ(a.adjusted[i], b.adjusted[i]);
}

TEST(SimdDispatch, ScalarAliasesAreAccepted)
{
    for (const char *v : {"scalar", "0"}) {
        ASSERT_EQ(setenv("FOVE_SIMD", v, 1), 0);
        EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::Scalar);
    }
    // "avx2" caps the level at AVX2 and "avx512" names the widest; both
    // are clamped to what the CPU supports.
    ASSERT_EQ(setenv("FOVE_SIMD", "avx2", 1), 0);
    EXPECT_EQ(simd::activeSimdLevel(),
              std::min(simd::SimdLevel::Avx2, simd::detectedSimdLevel()));
    ASSERT_EQ(setenv("FOVE_SIMD", "avx512", 1), 0);
    EXPECT_EQ(simd::activeSimdLevel(), simd::detectedSimdLevel());
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);
    EXPECT_EQ(simd::activeSimdLevel(), simd::detectedSimdLevel());
    EXPECT_STREQ(simd::simdLevelName(simd::SimdLevel::Avx512), "avx512");
}

} // namespace
} // namespace pce
