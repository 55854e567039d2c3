/**
 * @file
 * Planar (structure-of-arrays) tile storage for the SIMD kernel layer.
 *
 * The per-pixel records of the tile flow — Vec3 pixels, Ellipsoid
 * centers/axes, ExtremaPair endpoints — are AoS by nature. A 4-wide
 * AVX2 lane wants one contiguous array per *component* instead, so the
 * kernels can load four pixels' worth of one coordinate with a single
 * unaligned vector load and never shuffle. The frame pipeline gathers
 * every tile straight into these lanes.
 *
 * TileSoA is one reusable arena holding every planar lane of the tile
 * datapath. All lanes share a common stride (the pixel count rounded up
 * to the vector width), so kernels may process ceil(n / 4) full vectors
 * per lane without tail code: resize() zero-fills the padding of the
 * *input* lanes, which keeps the padded math of the dispatched kernels
 * benign, and the padded slots of output lanes are simply never read
 * back. (The per-pixel stage-1/2 loops for non-analytic models and
 * extrema overrides write the valid slots only; whatever the padding
 * then holds, every observable kernel result is masked to the valid
 * lanes.)
 */

#ifndef PCE_SIMD_TILE_SOA_HH
#define PCE_SIMD_TILE_SOA_HH

#include <cstddef>
#include <vector>

namespace pce::simd {

/** Vector width (doubles) the lane stride is padded to. */
inline constexpr std::size_t kLaneWidth = 4;

/** Planar lanes of the per-tile datapath. */
enum Lane : int
{
    // Inputs (caller-filled; padding zeroed by resize()).
    kPx, kPy, kPz,              ///< raw linear-RGB pixels
    kEcc,                       ///< per-pixel eccentricity, degrees

    // Stage 1 outputs: per-pixel discrimination ellipsoids.
    kCx, kCy, kCz,              ///< DKL center (= DKL of clamped pixel)
    kAx, kAy, kAz,              ///< DKL semi-axes

    // Stage 2 outputs: extrema along the Red / Blue optimization axes.
    kRedHighX, kRedHighY, kRedHighZ,
    kRedLowX, kRedLowY, kRedLowZ,
    kBlueHighX, kBlueHighY, kBlueHighZ,
    kBlueLowX, kBlueLowY, kBlueLowZ,

    // Stage 3 outputs: the two candidate adjusted tiles.
    kOutRedX, kOutRedY, kOutRedZ,
    kOutBlueX, kOutBlueY, kOutBlueZ,

    kLaneCount
};

/** One grow-once arena of every planar lane. */
struct TileSoA
{
    std::size_t n = 0;       ///< valid pixels per lane
    std::size_t stride = 0;  ///< doubles per lane (n padded to kLaneWidth)
    std::vector<double> buf; ///< kLaneCount lanes of `stride` doubles

    /**
     * Set the pixel count and (re)provision the arena. The buffer only
     * ever grows, so a scratch reused across tiles allocates once.
     * Padding slots of the input lanes are zeroed every call — stale
     * values from a larger previous tile must not leak into the padded
     * vector math of the current one.
     */
    void
    resize(std::size_t count)
    {
        n = count;
        stride = (count + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
        if (buf.size() < stride * kLaneCount)
            buf.resize(stride * kLaneCount);
        for (int l = kPx; l <= kEcc; ++l)
            for (std::size_t i = n; i < stride; ++i)
                lane(l)[i] = 0.0;
    }

    double *lane(int l) { return buf.data() + stride * l; }
    const double *lane(int l) const { return buf.data() + stride * l; }
};

} // namespace pce::simd

#endif // PCE_SIMD_TILE_SOA_HH
