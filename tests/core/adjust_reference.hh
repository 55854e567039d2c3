/**
 * @file
 * Test-only reference tile adjustment: the Vec3/AoS statement of the
 * Fig. 7 flow the library ran before every configuration moved onto
 * the planar kernel stages. Per-pixel ellipsoids, per-pixel extrema
 * pairs, the HL/LH reduction and the move written over Vec3 buffers,
 * and axis selection by bdTileBits of each candidate. TileAdjuster
 * must reproduce it bit for bit at every SIMD level, for any model and
 * extrema backend. Also holds the tests' AoS <-> planar lane helpers.
 */

#ifndef PCE_TESTS_CORE_ADJUST_REFERENCE_HH
#define PCE_TESTS_CORE_ADJUST_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/vec3.hh"
#include "core/adjust.hh"
#include "core/quadric.hh"
#include "perception/discrimination.hh"
#include "simd/tile_soa.hh"

namespace pce::adjref {

/** Fill the input lanes of @p soa from AoS pixels/eccentricities. */
inline void
fillSoA(simd::TileSoA &soa, const std::vector<Vec3> &pixels,
        const std::vector<double> &ecc)
{
    soa.resize(pixels.size());
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        soa.lane(simd::kPx)[i] = pixels[i].x;
        soa.lane(simd::kPy)[i] = pixels[i].y;
        soa.lane(simd::kPz)[i] = pixels[i].z;
        soa.lane(simd::kEcc)[i] = ecc[i];
    }
}

/** The adjusted candidate of @p axis in @p soa, interleaved. */
inline std::vector<Vec3>
candidateLanes(const simd::TileSoA &soa, int axis)
{
    const bool red = axis == 0;
    std::vector<Vec3> out;
    for (std::size_t i = 0; i < soa.n; ++i)
        out.emplace_back(
            soa.lane(red ? simd::kOutRedX : simd::kOutBlueX)[i],
            soa.lane(red ? simd::kOutRedY : simd::kOutBlueY)[i],
            soa.lane(red ? simd::kOutRedZ : simd::kOutBlueZ)[i]);
    return out;
}

/** Per-pixel ellipsoids of the (clamped) tile pixels. */
inline std::vector<Ellipsoid>
ellipsoids(const DiscriminationModel &model,
           const std::vector<Vec3> &pixels,
           const std::vector<double> &ecc)
{
    std::vector<Ellipsoid> out(pixels.size());
    for (std::size_t i = 0; i < pixels.size(); ++i)
        out[i] = model.ellipsoidFor(pixels[i].clamped(0.0, 1.0), ecc[i]);
    return out;
}

/** Extrema along @p axis; an empty @p fn is the Eq. 11-13 datapath. */
inline std::vector<ExtremaPair>
extrema(const std::vector<Ellipsoid> &ells, const ExtremaFn &fn, int axis)
{
    std::vector<ExtremaPair> out(ells.size());
    for (std::size_t i = 0; i < ells.size(); ++i)
        out[i] = fn ? fn(ells[i], axis) : extremaAlongAxis(ells[i], axis);
    return out;
}

/** Steps 2-3 of Fig. 7 along one axis: HL/LH reduction, then move. */
inline AxisAdjustment
moveAlongAxis(const std::vector<Vec3> &pixels,
              const std::vector<ExtremaPair> &extrema, int axis)
{
    AxisAdjustment out;
    const std::size_t n = pixels.size();
    out.adjusted.resize(n);
    if (n == 0)
        return out;

    double hl = -1e300;
    double lh = 1e300;
    for (const ExtremaPair &ex : extrema) {
        hl = std::max(hl, ex.low[axis]);
        lh = std::min(lh, ex.high[axis]);
    }
    out.hlPlane = hl;
    out.lhPlane = lh;
    out.adjustCase = hl > lh ? AdjustCase::C1 : AdjustCase::C2;

    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 &p = pixels[i];
        const double target = out.adjustCase == AdjustCase::C2
                                  ? 0.5 * (hl + lh)
                                  : std::clamp(p[axis], lh, hl);
        const Vec3 v = extrema[i].extremaVector();
        if (v[axis] == 0.0) {
            out.adjusted[i] = p;
            continue;
        }
        const double t = (target - p[axis]) / v[axis];
        const Vec3 cand = p + v * t;
        if (cand.x > 0.0 && cand.x < 1.0 && cand.y > 0.0 &&
            cand.y < 1.0 && cand.z > 0.0 && cand.z < 1.0) {
            out.adjusted[i] = cand;
            continue;
        }
        const double t_gamut = clampMovementToGamut(p, v, t);
        if (t_gamut != t)
            ++out.gamutClampedPixels;
        out.adjusted[i] = p + v * t_gamut;
    }
    return out;
}

/** One axis of the reference flow. */
inline AxisAdjustment
adjustAlongAxis(const DiscriminationModel &model, const ExtremaFn &fn,
                const std::vector<Vec3> &pixels,
                const std::vector<double> &ecc, int axis)
{
    return moveAlongAxis(
        pixels, extrema(ellipsoids(model, pixels, ecc), fn, axis), axis);
}

/** The full reference tile flow: both axes, smaller BD cost kept. */
inline TileAdjustment
adjustTile(const DiscriminationModel &model, const ExtremaFn &fn,
           const std::vector<Vec3> &pixels,
           const std::vector<double> &ecc)
{
    const std::vector<Ellipsoid> ells = ellipsoids(model, pixels, ecc);
    AxisAdjustment red =
        moveAlongAxis(pixels, extrema(ells, fn, 0), 0);
    AxisAdjustment blue =
        moveAlongAxis(pixels, extrema(ells, fn, 2), 2);

    TileAdjustment out;
    out.caseRed = red.adjustCase;
    out.caseBlue = blue.adjustCase;
    out.bitsRed = bdTileBits(red.adjusted);
    out.bitsBlue = bdTileBits(blue.adjusted);
    AxisAdjustment &chosen = out.bitsRed < out.bitsBlue ? red : blue;
    out.chosenAxis = out.bitsRed < out.bitsBlue ? 0 : 2;
    out.chosenCase = chosen.adjustCase;
    out.gamutClampedPixels = chosen.gamutClampedPixels;
    out.adjusted = std::move(chosen.adjusted);
    return out;
}

} // namespace pce::adjref

#endif // PCE_TESTS_CORE_ADJUST_REFERENCE_HH
