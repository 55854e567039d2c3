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
 * backend. Scalar is always available; AVX2 runs whenever the host CPU
 * has it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
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

namespace pce {
namespace {

const AnalyticDiscriminationModel &
model()
{
    static const AnalyticDiscriminationModel m;
    return m;
}

/** Every dispatch level available on this host. */
std::vector<simd::SimdLevel>
availableLevels()
{
    std::vector<simd::SimdLevel> levels{simd::SimdLevel::Scalar};
    if (simd::detectedSimdLevel() == simd::SimdLevel::Avx2)
        levels.push_back(simd::SimdLevel::Avx2);
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
 * expectMatchesReference.
 */
void
sweepAgainstReference(const TileAdjuster &adjuster, const ExtremaFn &fn,
                      uint64_t seed, int trials)
{
    Rng rng(seed);
    simd::TileSoA soa;  // reused across sizes: no state may leak
    for (const std::size_t n : {16u, 4u, 1u, 13u, 64u}) {
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
    // loops over the model per pixel, stages 2-4 stay dispatched.
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
    // The fused quantize+cost kernel vs. the materialized-codes path.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(404);
    simd::TileSoA soa;
    for (const std::size_t n : {16u, 3u, 9u}) {
        for (int trial = 0; trial < 25; ++trial) {
            soa.resize(n);
            // Raw candidate values, including slightly out-of-gamut
            // and exact-boundary inputs the quantizer must clamp.
            for (std::size_t i = 0; i < n; ++i) {
                soa.lane(simd::kOutRedX)[i] = rng.uniform(-0.1, 1.1);
                soa.lane(simd::kOutRedY)[i] = rng.uniform(0.0, 1.0);
                soa.lane(simd::kOutRedZ)[i] =
                    i % 4 == 0 ? 1.0 : rng.uniform();
            }
            std::vector<uint8_t> codes(n * 3);
            linearToSrgb8Planar(soa.lane(simd::kOutRedX),
                                soa.lane(simd::kOutRedY),
                                soa.lane(simd::kOutRedZ), n,
                                codes.data());
            EXPECT_EQ(k.tileCost(soa, 0),
                      bdTileBitsFromCodes(codes.data(), n));
        }
    }
}

TEST_P(SimdLevelTest, BdTileMinMaxMatchesDirectScanExactly)
{
    // The BD stats kernel vs. a direct per-channel scan over every
    // tile of the grid: full tiles, ragged edge tiles, tiles ending at
    // the very last byte of the buffer (exercising the in-bounds guard
    // of the vector tail), and row widths on both sides of the 32-byte
    // vector width.
    const simd::TileKernels &k = simd::tileKernels(GetParam());
    Rng rng(808);
    const struct
    {
        int w, h, tile;
    } cases[] = {{64, 64, 4},  {61, 47, 4}, {13, 7, 5}, {128, 96, 16},
                 {1, 1, 4},    {40, 40, 8}, {9, 9, 3},  {33, 2, 32},
                 {256, 3, 255}};
    for (const auto &cs : cases) {
        ImageU8 img(cs.w, cs.h);
        for (auto &b : img.data())
            b = static_cast<uint8_t>(rng.uniformInt(256));
        const std::size_t stride =
            static_cast<std::size_t>(cs.w) * 3;
        const uint8_t *end = img.data().data() + img.data().size();
        for (const TileRect &rect :
             tileGrid(cs.w, cs.h, cs.tile)) {
            uint8_t lo[3];
            uint8_t hi[3];
            k.bdTileMinMax(img.pixel(rect.x0, rect.y0), stride,
                           rect.w, rect.h, end, lo, hi);
            uint8_t ref_lo[3] = {255, 255, 255};
            uint8_t ref_hi[3] = {0, 0, 0};
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y)
                for (int x = rect.x0; x < rect.x0 + rect.w; ++x)
                    for (int c = 0; c < 3; ++c) {
                        const uint8_t v = img.channel(x, y, c);
                        ref_lo[c] = std::min(ref_lo[c], v);
                        ref_hi[c] = std::max(ref_hi[c], v);
                    }
            for (int c = 0; c < 3; ++c) {
                EXPECT_EQ(lo[c], ref_lo[c])
                    << cs.w << "x" << cs.h << " tile " << cs.tile
                    << " at (" << rect.x0 << "," << rect.y0
                    << ") channel " << c;
                EXPECT_EQ(hi[c], ref_hi[c])
                    << cs.w << "x" << cs.h << " tile " << cs.tile
                    << " at (" << rect.x0 << "," << rect.y0
                    << ") channel " << c;
            }
        }
    }
}

TEST(SimdDispatch, EncodeStatsPassIsLevelInvariant)
{
    // The whole-frame encode must emit byte-identical streams whether
    // the stats pass ran the AVX2 or the scalar min/max kernel (the
    // FOVE_SIMD override is read per encodeInto call).
    Rng rng(909);
    ImageU8 img(61, 53);
    for (auto &b : img.data())
        b = static_cast<uint8_t>(rng.uniformInt(256));
    const BdCodec codec(4);

    ASSERT_EQ(setenv("FOVE_SIMD", "off", 1), 0);
    std::vector<uint8_t> scalar_stream;
    codec.encodeInto(img, nullptr, scalar_stream);
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);

    std::vector<uint8_t> active_stream;
    codec.encodeInto(img, nullptr, active_stream);
    EXPECT_EQ(scalar_stream, active_stream);
    EXPECT_EQ(BdCodec::decode(active_stream), img);
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
    ASSERT_EQ(setenv("FOVE_SIMD", "avx2", 1), 0);
    // Explicit requests are clamped to what the CPU supports.
    EXPECT_EQ(simd::activeSimdLevel(), simd::detectedSimdLevel());
    ASSERT_EQ(unsetenv("FOVE_SIMD"), 0);
}

} // namespace
} // namespace pce
