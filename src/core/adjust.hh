/**
 * @file
 * Per-tile perceptual color adjustment (paper Sec. 3.3-3.4, Fig. 6-7).
 *
 * Given a tile of linear-RGB pixels and their discrimination ellipsoids,
 * the adjuster shrinks the spread of one RGB channel (Red or Blue) by
 * moving each color along its ellipsoid's extrema vector:
 *
 *  - Per pixel, compute the extrema (H_i, L_i) of its ellipsoid along
 *    the optimization axis.
 *  - Reduce: HL = max_i L_i[axis] (highest of the lows) and
 *            LH = min_i H_i[axis] (lowest of the highs).
 *  - Case 1 (HL > LH, Fig. 6a): no plane crosses every ellipsoid; clamp
 *    each pixel's channel into [LH, HL] (colors above HL move down to
 *    HL, colors below LH move up to LH), the minimal-movement policy
 *    achieving the optimal spread HL - LH.
 *  - Case 2 (HL <= LH, Fig. 6b): every plane between HL and LH crosses
 *    all ellipsoids; move every color to the average plane
 *    (HL + LH) / 2, collapsing the channel spread to zero.
 *
 * Movement is along the extrema vector so the adjusted color stays
 * inside its ellipsoid (the target channel value lies between the two
 * extrema, hence on the center chord). A final gamut step restricts the
 * movement parameter so the color also stays inside the RGB unit cube —
 * the perceptual constraint (Eq. 7d) is never traded for compression.
 *
 * Both axes are tried and the tile variant with the smaller BD bit cost
 * (after sRGB quantization) is kept, exactly as in Fig. 7.
 *
 * One flow runs every configuration over the planar lanes of a
 * simd::TileSoA: stage 1 (ellipsoids) and stage 2 (extrema for both
 * axes) are the only per-configuration choice — the dispatched
 * kernels for the analytic model and the default Eq. 11-13 datapath,
 * per-pixel loops over DiscriminationModel::ellipsoidFor / the
 * ExtremaFn override otherwise — and stage 3 (one kernel per axis:
 * the HL/LH reduction, then the move, reducing the candidate to its
 * value range) always runs through the dispatched kernel table;
 * bdTileBitsFromRange costs each candidate from that range, and
 * stage 4 (quantizeCandidate) quantizes the chosen one between the
 * codes of its range. The frame pipeline gathers each tile straight
 * into a reused TileSoA, so a worker thread encodes a whole frame
 * without allocating; the std::vector overloads below wrap the same
 * flow for tests, benches, and exploratory code.
 */

#ifndef PCE_CORE_ADJUST_HH
#define PCE_CORE_ADJUST_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vec3.hh"
#include "core/quadric.hh"
#include "perception/discrimination.hh"
#include "simd/tile_kernels.hh"
#include "simd/tile_soa.hh"

namespace pce {

/** Which Fig. 6 case a tile fell into along one axis. */
enum class AdjustCase
{
    C1,  ///< HL > LH: no common plane (Fig. 6a)
    C2,  ///< HL <= LH: common plane exists, channel collapses (Fig. 6b)
};

/** Outcome of adjusting one tile along one axis. */
struct AxisAdjustment
{
    std::vector<Vec3> adjusted;  ///< linear RGB, same order as input
    AdjustCase adjustCase = AdjustCase::C2;
    double hlPlane = 0.0;  ///< HL value along the axis
    double lhPlane = 0.0;  ///< LH value along the axis
    int gamutClampedPixels = 0;  ///< movements shortened by the gamut
};

/** Outcome of the full per-tile optimization (both axes, best kept). */
struct TileAdjustment
{
    std::vector<Vec3> adjusted;
    int chosenAxis = 2;          ///< 0 = Red, 2 = Blue
    AdjustCase chosenCase = AdjustCase::C2;
    AdjustCase caseRed = AdjustCase::C2;
    AdjustCase caseBlue = AdjustCase::C2;
    std::size_t bitsRed = 0;     ///< BD bits of the red-axis variant
    std::size_t bitsBlue = 0;    ///< BD bits of the blue-axis variant
    int gamutClampedPixels = 0;
};

/**
 * Tile outcome of the planar flow. The adjusted pixels are not copied:
 * they live in the TileSoA's kOutRed* / kOutBlue* lane group of the
 * chosen axis, valid until the arena is reused.
 */
struct TileOutcome
{
    int chosenAxis = 2;          ///< 0 = Red, 2 = Blue
    AdjustCase chosenCase = AdjustCase::C2;
    AdjustCase caseRed = AdjustCase::C2;
    AdjustCase caseBlue = AdjustCase::C2;
    std::size_t bitsRed = 0;
    std::size_t bitsBlue = 0;
    int gamutClampedPixels = 0;
};

/** The color adjustment algorithm of Sec. 3.4. */
class TileAdjuster
{
  public:
    /**
     * @param model Discrimination model used to derive per-pixel
     *              ellipsoids. The reference must outlive the adjuster.
     * @param extrema Extrema backend; empty uses the Eq. 11-13
     *              datapath (extremaBothAxes).
     * @param level SIMD dispatch level of the kernel table; defaults to
     *              CPUID detection with the FOVE_SIMD env override (see
     *              src/simd/tile_kernels.hh). Stage 3 always runs at
     *              this level. Stage 1 does too when @p model is
     *              exactly the analytic model, and stage 2 when no
     *              @p extrema override is set; otherwise those stages
     *              loop per pixel over the model / override. Every
     *              level produces bit-identical results.
     */
    explicit TileAdjuster(const DiscriminationModel &model,
                          ExtremaFn extrema = {},
                          simd::SimdLevel level =
                              simd::activeSimdLevel());

    /**
     * Effective dispatch level of the kernel table (the constructor's
     * request clamped to what the CPU/build can run).
     */
    simd::SimdLevel simdLevel() const { return simdLevel_; }

    /**
     * The full Fig. 7 tile flow on caller-filled planar lanes: @p soa
     * must be resize(n)'d with kPx..kPz / kEcc filled. Ellipsoids once
     * per pixel, extrema for both axes from one quadric, both candidate
     * moves, both BD costs from the candidates' value ranges, smaller
     * cost chosen. The chosen candidate lives in the kOutRed* (axis 0)
     * or kOutBlue* (axis 2) lanes, its per-channel sRGB code range in
     * soa.codesOf(chosenAxis). Zero allocation once the arena has grown
     * to the tile size.
     */
    TileOutcome adjustTile(simd::TileSoA &soa) const;

    /**
     * Quantize the candidate of @p axis that adjustTile(soa) left (its
     * code range included) to interleaved sRGB codes, straight into
     * image rows: pixel k of the tile, @p width pixels wide, goes to
     * dst + (k / width) * row_bytes + 3 * (k % width). Bit-identical to
     * linearToSrgb8Planar of the candidate's lanes, at every level.
     */
    void quantizeCandidate(const simd::TileSoA &soa, int axis,
                           std::size_t width, uint8_t *dst,
                           std::size_t row_bytes) const;

    /**
     * Adjust a tile along a single axis (exposed for tests and the
     * ablation benches). Runs the same flow; bit-identical to the
     * matching candidate of adjustTile.
     *
     * @param pixels Linear-RGB tile pixels.
     * @param ecc_deg Per-pixel eccentricities (same length).
     * @param axis 0 = Red or 2 = Blue.
     */
    AxisAdjustment adjustAlongAxis(const std::vector<Vec3> &pixels,
                                   const std::vector<double> &ecc_deg,
                                   int axis) const;

    /**
     * Convenience overload of the full tile flow that copies the
     * chosen variant out of a call-local arena.
     */
    TileAdjustment adjustTile(const std::vector<Vec3> &pixels,
                              const std::vector<double> &ecc_deg) const;

    const DiscriminationModel &model() const { return model_; }

  private:
    /** Stages 1-2 of Fig. 7: ellipsoids, then extrema for both axes. */
    void computeExtrema(simd::TileSoA &soa) const;

    /**
     * Stage 3 along one axis: the kernel of the axis reduces HL/LH over
     * its extrema lanes and moves every pixel into its output lanes.
     */
    simd::AxisMove moveAxis(simd::TileSoA &soa, int axis) const;

    const DiscriminationModel &model_;
    ExtremaFn extrema_;
    /** True when model_ is exactly AnalyticDiscriminationModel. */
    bool analyticModel_ = false;
    /** Params snapshot backing the stage-1 kernel (analytic only). */
    AnalyticModelParams analyticParams_;
    const simd::TileKernels *kernels_ = nullptr;
    simd::SimdLevel simdLevel_ = simd::SimdLevel::Scalar;
    /** The sRGB table stage 4 quantizes through. */
    const Srgb8Table *srgbTable_ = nullptr;
};

/**
 * BD bit cost of a tile of linear-RGB pixels after sRGB quantization:
 * per channel, meta(4) + base(8) + N * ceil(log2(range+1)) bits.
 * Convenience wrapper over bdTileBitsFromCodes (src/bd); the tile
 * flow's bdTileBitsFromRange reproduces it from a value range.
 */
std::size_t bdTileBits(const std::vector<Vec3> &pixels_linear);

/**
 * BD bit cost of an @p n-pixel candidate from its stage-3 value range,
 * leaving its per-channel code range in @p codes (untouched when @p n
 * is 0). linearToSrgb8 is a non-decreasing step function (NaN maps to
 * 0; tests/color proves the table monotone), so a channel's min / max
 * code is the code of its min / max value: lo is 0 when any valid lane
 * is NaN, hi the code of the largest non-NaN value (0 when every lane
 * is NaN). Equals bdTileBitsFromCodes of the candidate's
 * linearToSrgb8Planar codes, from two lookups per channel.
 */
std::size_t bdTileBitsFromRange(const simd::CandidateRange &range,
                                std::size_t n, simd::CandidateCodes &codes);

/**
 * Clamp the movement parameter @p t of the segment p(t) = origin +
 * t * dir so every coordinate stays within [0, 1]. Assumes origin is in
 * gamut (true for rendered colors). Returns the clamped t.
 *
 * One definition shared by the scalar move kernel (src/simd) and the
 * test reference flow (tests/core/adjust_reference.hh) — the
 * bit-identity contract between them is anchored here, and the vector
 * kernels mirror this exact operation sequence lanewise.
 */
inline double
clampMovementToGamut(const Vec3 &origin, const Vec3 &dir, double t)
{
    for (std::size_t i = 0; i < 3; ++i) {
        const double d = dir[i];
        if (d == 0.0)
            continue;
        // origin[i] + t*d in [0,1]  =>  t in the interval below.
        const double t_at_0 = (0.0 - origin[i]) / d;
        const double t_at_1 = (1.0 - origin[i]) / d;
        const double t_min = std::min(t_at_0, t_at_1);
        const double t_max = std::max(t_at_0, t_at_1);
        t = std::clamp(t, t_min, t_max);
    }
    return t;
}

} // namespace pce

#endif // PCE_CORE_ADJUST_HH
