/**
 * @file
 * Planar (structure-of-arrays) tile storage for the SIMD kernel layer.
 *
 * The per-pixel records of the tile flow — Vec3 pixels, Ellipsoid
 * centers/axes, ExtremaPair endpoints — are AoS by nature. A vector
 * lane wants one contiguous array per *component* instead, so the
 * kernels can load four (AVX2) or eight (AVX-512) pixels' worth of one
 * coordinate with a single unaligned vector load and never shuffle. The
 * frame pipeline gathers every tile straight into these lanes.
 *
 * TileSoA is one reusable arena holding every planar lane of the tile
 * datapath. All lanes share a common stride (the pixel count rounded up
 * to the widest vector width), so a kernel of any width may process
 * ceil(n / width) full vectors per lane without tail code: resize()
 * zero-fills the padding of the *input* lanes, which keeps the padded
 * math of the dispatched kernels benign, and the padded slots of output
 * lanes are simply never read back. (The per-pixel stage-1/2 loops for
 * non-analytic models and extrema overrides write the valid slots only;
 * whatever the padding then holds, every observable kernel result is
 * masked to the valid lanes.)
 */

#ifndef PCE_SIMD_TILE_SOA_HH
#define PCE_SIMD_TILE_SOA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pce::simd {

/**
 * Vector width (doubles) the lane stride is padded to: the widest
 * dispatch level's (AVX-512). Each level steps by its own width.
 */
inline constexpr std::size_t kLaneWidth = 8;

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

/**
 * The code range of one candidate: the per-channel min / max of the
 * sRGB codes linearToSrgb8Planar makes of its lanes — the tile's BD
 * base and delta range, which the tile adjuster derives from the
 * stage-3 value range. The codes themselves are never stored: stage 4
 * quantizes only the chosen candidate, straight into the delivered
 * frame, comparing each value with the code thresholds inside this
 * range.
 */
struct CandidateCodes
{
    uint8_t lo[3] = {};
    uint8_t hi[3] = {};
};

/** One grow-once arena of every planar lane. */
struct TileSoA
{
    std::size_t n = 0;       ///< valid pixels per lane
    std::size_t stride = 0;  ///< doubles per lane (n padded to kLaneWidth)
    std::vector<double> buf; ///< kLaneCount lanes of `stride` doubles
    /** Code ranges of the Red (0) and Blue (1) candidates. */
    CandidateCodes codes[2];

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

    /** Channel @p ch (0..2) of the candidate of axis @p axis (0 or 2). */
    const double *candidate(int axis, int ch) const
    { return lane((axis == 0 ? kOutRedX : kOutBlueX) + ch); }

    /** Code range of the candidate of axis @p axis (0 or 2). */
    CandidateCodes &codesOf(int axis) { return codes[axis == 0 ? 0 : 1]; }
    const CandidateCodes &codesOf(int axis) const
    { return codes[axis == 0 ? 0 : 1]; }
};

} // namespace pce::simd

#endif // PCE_SIMD_TILE_SOA_HH
