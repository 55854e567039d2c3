/**
 * @file
 * Portable scalar kernels of the tile adjust datapath.
 *
 * This TU is the reference: stages 1 and 2 are thin planar loops over
 * the model/quadric code (AnalyticDiscriminationModel::ellipsoidFor,
 * extremaBothAxes) — the same loops, parameterized, serve any model and
 * extrema backend (ellipsoidsFromModel, extremaFromBackend) — stage
 * 3's gamut clamp is the shared clampMovementToGamut (core/adjust.hh),
 * and stage 4 looks every code up in the sRGB table.
 * tests/core/adjust_reference.hh keeps the Vec3 statement of the
 * algorithm, and tests/core and tests/simd pin every kernel level to it
 * bit for bit.
 *
 * The vector kernels (tile_kernels_vec.hh, at 4 and 8 lanes) mirror
 * the exact operation sequence of these kernels a block at a time.
 */

#include "simd/tile_kernels.hh"

#include <algorithm>
#include <cmath>

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

template <int Axis>
AxisMove
moveAxisScalar(TileSoA &soa)
{
    constexpr bool red = Axis == 0;
    const double *px = soa.lane(kPx);
    const double *py = soa.lane(kPy);
    const double *pz = soa.lane(kPz);
    const double *hx = soa.lane(red ? kRedHighX : kBlueHighX);
    const double *hy = soa.lane(red ? kRedHighY : kBlueHighY);
    const double *hz = soa.lane(red ? kRedHighZ : kBlueHighZ);
    const double *lx = soa.lane(red ? kRedLowX : kBlueLowX);
    const double *ly = soa.lane(red ? kRedLowY : kBlueLowY);
    const double *lz = soa.lane(red ? kRedLowZ : kBlueLowZ);
    double *out[3] = {soa.lane(red ? kOutRedX : kOutBlueX),
                      soa.lane(red ? kOutRedY : kOutBlueY),
                      soa.lane(red ? kOutRedZ : kOutBlueZ)};

    // Step 2 (Fig. 7): HL (highest of the lows) and LH (lowest of the
    // highs); the CAU computes these with two reduction trees (Sec. 4.2).
    const double *low = red ? lx : lz;
    const double *high = red ? hx : hz;
    double hl = -1e300;
    double lh = 1e300;
    for (std::size_t i = 0; i < soa.n; ++i) {
        hl = std::max(hl, low[i]);
        lh = std::min(lh, high[i]);
    }
    // Step 3: collapse onto the average plane (Fig. 6b) or clamp into
    // [LH, HL] (Fig. 6a).
    const bool collapse = !(hl > lh);
    const double target_c2 = 0.5 * (hl + lh);

    // The running range lives in locals: a struct in the return slot
    // could alias the lane stores, which would pin it to memory.
    const double inf = CandidateRange::kInf;
    double lo[3] = {inf, inf, inf};
    double hi[3] = {-inf, -inf, -inf};
    bool nan[3] = {};
    int gamut_clamped = 0;
    for (std::size_t i = 0; i < soa.n; ++i) {
        const Vec3 p(px[i], py[i], pz[i]);
        const double target =
            collapse ? target_c2 : std::clamp(p[Axis], lh, hl);

        const Vec3 v = Vec3(hx[i], hy[i], hz[i]) -
                       Vec3(lx[i], ly[i], lz[i]);
        Vec3 adjusted;
        if (v[Axis] == 0.0) {
            adjusted = p;  // degenerate: no mobility along this axis
        } else {
            const double t = (target - p[Axis]) / v[Axis];
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
        // Store and fold into the range; a NaN only raises the flag.
#pragma GCC unroll 3
        for (int k = 0; k < 3; ++k) {
            const double a = adjusted[k];
            out[k][i] = a;
            nan[k] |= std::isnan(a);
            lo[k] = a < lo[k] ? a : lo[k];
            hi[k] = a > hi[k] ? a : hi[k];
        }
    }
    return AxisMove{hl, lh, collapse,
                    CandidateRange{{lo[0], lo[1], lo[2]},
                                   {hi[0], hi[1], hi[2]},
                                   {nan[0], nan[1], nan[2]},
                                   gamut_clamped}};
}

void
quantizeScalar(const TileSoA &soa, int axis, const Srgb8Table &table,
               std::size_t width, uint8_t *dst, std::size_t row_bytes)
{
    const double *x = soa.candidate(axis, 0);
    const double *y = soa.candidate(axis, 1);
    const double *z = soa.candidate(axis, 2);
    std::size_t col = 0;
    for (std::size_t i = 0; i < soa.n; ++i) {
        dst[3 * col + 0] = table.code(x[i]);
        dst[3 * col + 1] = table.code(y[i]);
        dst[3 * col + 2] = table.code(z[i]);
        if (++col == width) {
            col = 0;
            dst += row_bytes;
        }
    }
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
srgbCodeLanes(const Srgb8Table &table, const double *x, std::size_t n,
              double *codes)
{
    for (std::size_t i = 0; i < n; ++i)
        codes[i] = table.code(x[i]);
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

const TileKernels &
scalarTileKernels()
{
    static const TileKernels k{
        ellipsoidsScalar,
        extremaBothScalar,
        {moveAxisScalar<0>, moveAxisScalar<2>},
        quantizeScalar};
    return k;
}

} // namespace pce::simd
