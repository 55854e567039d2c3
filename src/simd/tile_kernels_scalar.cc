/**
 * @file
 * Portable scalar kernels of the tile adjust datapath.
 *
 * This TU is the reference: stages 1 and 2 are thin planar loops over
 * the model/quadric code (AnalyticDiscriminationModel::ellipsoidFor,
 * extremaBothAxes) — the same loops, parameterized, serve any model and
 * extrema backend (ellipsoidsFromModel, extremaFromBackend) — and stage
 * 3's gamut clamp is the shared clampMovementToGamut (core/adjust.hh).
 * tests/core/adjust_reference.hh keeps the Vec3 statement of the
 * algorithm, and tests/core and tests/simd pin every kernel level to it
 * bit for bit.
 *
 * The AVX2 TU (tile_kernels_avx2.cc) mirrors the exact operation
 * sequence of these kernels four pixels at a time.
 */

#include "simd/tile_kernels.hh"

#include <algorithm>

#include "bd/bd_codec.hh"
#include "color/srgb.hh"
#include "common/vec3.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "perception/discrimination.hh"

namespace pce::simd {

namespace {

void
ellipsoidsScalar(TileSoA &soa, const AnalyticModelParams &params)
{
    ellipsoidsFromModel(soa, AnalyticDiscriminationModel(params));
}

/**
 * The stage-2 loop: @p both(e, red, blue) fills the two ExtremaPairs of
 * each pixel's ellipsoid.
 */
template <class BothAxes>
void
extremaLanes(TileSoA &soa, const BothAxes &both)
{
    const double *cx = soa.lane(kCx);
    const double *cy = soa.lane(kCy);
    const double *cz = soa.lane(kCz);
    const double *ax = soa.lane(kAx);
    const double *ay = soa.lane(kAy);
    const double *az = soa.lane(kAz);
    double *rhx = soa.lane(kRedHighX);
    double *rhy = soa.lane(kRedHighY);
    double *rhz = soa.lane(kRedHighZ);
    double *rlx = soa.lane(kRedLowX);
    double *rly = soa.lane(kRedLowY);
    double *rlz = soa.lane(kRedLowZ);
    double *bhx = soa.lane(kBlueHighX);
    double *bhy = soa.lane(kBlueHighY);
    double *bhz = soa.lane(kBlueHighZ);
    double *blx = soa.lane(kBlueLowX);
    double *bly = soa.lane(kBlueLowY);
    double *blz = soa.lane(kBlueLowZ);
    for (std::size_t i = 0; i < soa.n; ++i) {
        Ellipsoid e;
        e.centerDkl = Vec3(cx[i], cy[i], cz[i]);
        e.semiAxes = Vec3(ax[i], ay[i], az[i]);
        ExtremaPair red;
        ExtremaPair blue;
        both(e, red, blue);
        rhx[i] = red.high.x;
        rhy[i] = red.high.y;
        rhz[i] = red.high.z;
        rlx[i] = red.low.x;
        rly[i] = red.low.y;
        rlz[i] = red.low.z;
        bhx[i] = blue.high.x;
        bhy[i] = blue.high.y;
        bhz[i] = blue.high.z;
        blx[i] = blue.low.x;
        bly[i] = blue.low.y;
        blz[i] = blue.low.z;
    }
}

void
extremaBothScalar(TileSoA &soa)
{
    extremaLanes(soa, [](const Ellipsoid &e, ExtremaPair &red,
                         ExtremaPair &blue) {
        extremaBothAxes(e, red, blue);
    });
}

int
moveAxisScalar(TileSoA &soa, int axis, bool collapse, double target_c2,
               double lh, double hl)
{
    const bool red = axis == 0;
    const double *px = soa.lane(kPx);
    const double *py = soa.lane(kPy);
    const double *pz = soa.lane(kPz);
    const double *hx = soa.lane(red ? kRedHighX : kBlueHighX);
    const double *hy = soa.lane(red ? kRedHighY : kBlueHighY);
    const double *hz = soa.lane(red ? kRedHighZ : kBlueHighZ);
    const double *lx = soa.lane(red ? kRedLowX : kBlueLowX);
    const double *ly = soa.lane(red ? kRedLowY : kBlueLowY);
    const double *lz = soa.lane(red ? kRedLowZ : kBlueLowZ);
    double *ox = soa.lane(red ? kOutRedX : kOutBlueX);
    double *oy = soa.lane(red ? kOutRedY : kOutBlueY);
    double *oz = soa.lane(red ? kOutRedZ : kOutBlueZ);

    int gamut_clamped = 0;
    for (std::size_t i = 0; i < soa.n; ++i) {
        const Vec3 p(px[i], py[i], pz[i]);
        const double target =
            collapse ? target_c2 : std::clamp(p[axis], lh, hl);

        const Vec3 v = Vec3(hx[i], hy[i], hz[i]) -
                       Vec3(lx[i], ly[i], lz[i]);
        Vec3 adjusted;
        if (v[axis] == 0.0) {
            adjusted = p;  // degenerate: no mobility along this axis
        } else {
            const double t = (target - p[axis]) / v[axis];
            const Vec3 cand = p + v * t;
            if (cand.x > 0.0 && cand.x < 1.0 && cand.y > 0.0 &&
                cand.y < 1.0 && cand.z > 0.0 && cand.z < 1.0) {
                adjusted = cand;
            } else {
                const double t_gamut = clampMovementToGamut(p, v, t);
                if (t_gamut != t)
                    ++gamut_clamped;
                adjusted = p + v * t_gamut;
            }
        }
        ox[i] = adjusted.x;
        oy[i] = adjusted.y;
        oz[i] = adjusted.z;
    }
    return gamut_clamped;
}

} // namespace

void
ellipsoidsFromModel(TileSoA &soa, const DiscriminationModel &model)
{
    const double *px = soa.lane(kPx);
    const double *py = soa.lane(kPy);
    const double *pz = soa.lane(kPz);
    const double *ecc = soa.lane(kEcc);
    double *cx = soa.lane(kCx);
    double *cy = soa.lane(kCy);
    double *cz = soa.lane(kCz);
    double *ax = soa.lane(kAx);
    double *ay = soa.lane(kAy);
    double *az = soa.lane(kAz);
    for (std::size_t i = 0; i < soa.n; ++i) {
        // The pixel is clamped before entering the model, which puts
        // ellipsoidFor on its single-DKL-transform branch.
        const Ellipsoid e = model.ellipsoidFor(
            Vec3(px[i], py[i], pz[i]).clamped(0.0, 1.0), ecc[i]);
        cx[i] = e.centerDkl.x;
        cy[i] = e.centerDkl.y;
        cz[i] = e.centerDkl.z;
        ax[i] = e.semiAxes.x;
        ay[i] = e.semiAxes.y;
        az[i] = e.semiAxes.z;
    }
}

void
extremaFromBackend(TileSoA &soa, const ExtremaFn &extrema)
{
    extremaLanes(soa, [&extrema](const Ellipsoid &e, ExtremaPair &red,
                                 ExtremaPair &blue) {
        red = extrema(e, 0);
        blue = extrema(e, 2);
    });
}

std::size_t
tileCostScalar(const TileSoA &soa, int axis)
{
    const bool red = axis == 0;
    const double *ox = soa.lane(red ? kOutRedX : kOutBlueX);
    const double *oy = soa.lane(red ? kOutRedY : kOutBlueY);
    const double *oz = soa.lane(red ? kOutRedZ : kOutBlueZ);

    // bdTileBitsFromCodes over linearToSrgb8 of each channel, with the
    // min/max reduction fused in instead of a materialized code buffer.
    std::size_t bits = 3 * (kBdWidthFieldBits + kBdBaseBits);
    if (soa.n == 0)
        return bits;
    uint8_t lo[3] = {255, 255, 255};
    uint8_t hi[3] = {0, 0, 0};
    for (std::size_t i = 0; i < soa.n; ++i) {
        const uint8_t c[3] = {linearToSrgb8(ox[i]),
                              linearToSrgb8(oy[i]),
                              linearToSrgb8(oz[i])};
        for (int k = 0; k < 3; ++k) {
            lo[k] = std::min(lo[k], c[k]);
            hi[k] = std::max(hi[k], c[k]);
        }
    }
    for (int k = 0; k < 3; ++k)
        bits += soa.n * bdDeltaWidth(lo[k], hi[k]);
    return bits;
}

void
bdTileMinMaxScalar(const uint8_t *rows, std::size_t stride, int width,
                   int height, const uint8_t *, uint8_t lo[3],
                   uint8_t hi[3])
{
    lo[0] = lo[1] = lo[2] = 255;
    hi[0] = hi[1] = hi[2] = 0;
    for (int y = 0; y < height; ++y) {
        const uint8_t *p = rows + static_cast<std::size_t>(y) * stride;
        for (int x = 0; x < width; ++x) {
            for (int c = 0; c < 3; ++c) {
                const uint8_t v = p[3 * x + c];
                lo[c] = std::min(lo[c], v);
                hi[c] = std::max(hi[c], v);
            }
        }
    }
}

const TileKernels &
scalarTileKernels()
{
    static const TileKernels k{ellipsoidsScalar, extremaBothScalar,
                               moveAxisScalar, tileCostScalar,
                               bdTileMinMaxScalar};
    return k;
}

} // namespace pce::simd
