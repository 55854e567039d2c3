/**
 * @file
 * SIMD kernel layer of the tile adjust datapath, with runtime dispatch.
 *
 * The per-pixel stages of the Fig. 7 tile flow —
 *
 *  1. ellipsoid construction (clamp, RGB->DKL, analytic semi-axes),
 *  2. fused both-axes quadric extrema (Eq. 11-13),
 *  3. movement clamping/apply along one optimization axis, reducing
 *     each stored candidate channel to its value range —
 *
 * are exposed as data-parallel kernels over the planar TileSoA lanes.
 * Three implementations exist behind one function table: a portable
 * scalar build (always present; it *is* the reference datapath, calling
 * the model/quadric code of src/perception and src/core per pixel), and
 * one vector kernel source (tile_kernels_vec.hh, a template over a
 * vector-traits type) instantiated at 4 lanes (AVX2) and 8 lanes
 * (AVX-512), each in its own TU compiled with its ISA flags and selected
 * at runtime by CPUID. Stages 1 and 2 also have undispatched forms for
 * any DiscriminationModel / ExtremaFn (ellipsoidsFromModel,
 * extremaFromBackend): the scalar kernels' loop bodies with the model or
 * backend as a parameter.
 *
 * Bit-identity contract: every level produces bit-identical doubles for
 * every input. The vector kernels replicate the scalar code's exact
 * operation sequence (same association, no FMA contraction — the vector
 * TUs are built with -ffp-contract=off, and vector mul/add/div/sqrt are
 * IEEE-exact per element), and min/max/clamp are implemented as
 * compare+blend with the precise semantics of the std:: forms they
 * mirror. tests/simd sweeps every level the host can run against the
 * scalar reference and asserts equality, not tolerance.
 *
 * Dispatch override: set FOVE_SIMD=off (or =scalar) to force the
 * portable kernels, FOVE_SIMD=avx2 to cap the level at AVX2,
 * FOVE_SIMD=avx512 / auto / unset for the best level CPUID detects. A
 * requested level is clamped to what the CPU supports.
 */

#ifndef PCE_SIMD_TILE_KERNELS_HH
#define PCE_SIMD_TILE_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/quadric.hh"
#include "perception/discrimination.hh"
#include "simd/tile_soa.hh"

namespace pce::simd {

/** Instruction-set level of a kernel table. */
enum class SimdLevel
{
    Scalar,  ///< portable reference kernels
    Avx2,    ///< 4-wide AVX2 kernels
    Avx512,  ///< 8-wide AVX-512 (F + DQ) kernels
};

/** Human-readable level name ("scalar" / "avx2" / "avx512"). */
const char *simdLevelName(SimdLevel level);

/**
 * Highest level this CPU supports (CPUID; a level whose TU was not
 * built for this target is never reported).
 */
SimdLevel detectedSimdLevel();

/**
 * detectedSimdLevel() clamped by the FOVE_SIMD environment override.
 * Reads the environment on every call (construction-time cost only:
 * the TileAdjuster resolves its kernel table once), so tests can flip
 * the override in-process.
 */
SimdLevel activeSimdLevel();

/**
 * The level tileKernels(requested) actually resolves to: a request for
 * a level the CPU/build cannot run is clamped to the detected level
 * (the smaller of the two). Callers that report or record their
 * dispatch level must use this, never the raw request.
 */
SimdLevel effectiveSimdLevel(SimdLevel requested);

/**
 * Stage 3 result: the gamut-clamp count and the per-channel value range
 * of the stored candidate over its n valid lanes. lo / hi are the min /
 * max of the non-NaN lanes (+inf / -inf when there are none; a zero of
 * either sign may stand for both), nan[c] is set when any valid lane of
 * channel c is NaN. The tile adjuster turns it into the candidate's
 * sRGB code range and BD bit cost (bdTileBitsFromRange, core/adjust.hh).
 */
struct CandidateRange
{
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    double lo[3] = {kInf, kInf, kInf};
    double hi[3] = {-kInf, -kInf, -kInf};
    bool nan[3] = {};
    int gamutClamped = 0;  ///< pixels whose movement the gamut shortened
};

/**
 * The per-stage kernel table. All kernels read/write the planar lanes
 * of a TileSoA (see tile_soa.hh for the lane map) and may touch the
 * full padded stride of any lane.
 */
struct TileKernels
{
    /**
     * Stage 1: per-pixel discrimination ellipsoids of the analytic
     * model. Reads kPx..kPz (raw pixels; clamped to [0,1] internally,
     * like ellipsoidsFromModel) and kEcc; writes the DKL centers
     * kCx..kCz and semi-axes kAx..kAz.
     */
    void (*ellipsoids)(TileSoA &soa, const AnalyticModelParams &params);

    /**
     * Stage 2: extrema along both optimization axes from one shared
     * quadric transform (Eq. 11-13, both halves of extremaBothAxes).
     * Reads kCx..kCz / kAx..kAz; writes the four extrema endpoint
     * groups kRedHigh* / kRedLow* / kBlueHigh* / kBlueLow*.
     *
     * @throws std::domain_error on a degenerate ellipsoid (zero Eq. 13
     *         denominator), exactly like extremaAlongAxis.
     */
    void (*extremaBoth)(TileSoA &soa);

    /**
     * Stage 3: move every pixel along its extrema vector toward the
     * per-tile target (Fig. 6), clamping to the RGB gamut. Reads the
     * raw pixels and the extrema lanes of @p axis; writes the adjusted
     * candidate lanes of @p axis (kOutRed* for axis 0, kOutBlue* for
     * axis 2), folding each channel into its value range as it is
     * stored.
     *
     * @param axis     Optimization axis, 0 (Red) or 2 (Blue).
     * @param collapse True for the Fig. 6b common-plane case (C2).
     * @param target   Collapse plane 0.5 * (hl + lh); ignored unless
     *                 @p collapse.
     * @param lh,hl    The LH / HL planes (Fig. 6a clamp interval).
     * @return The candidate's value range and the number of pixels
     *         whose movement was shortened by the gamut clamp.
     */
    CandidateRange (*moveAxis)(TileSoA &soa, int axis, bool collapse,
                               double target, double lh, double hl);
};

/**
 * Stage 1 for any discrimination model: per pixel,
 * model.ellipsoidFor(pixel.clamped(0, 1), ecc) into kCx..kAz. The
 * scalar ellipsoids kernel is this loop over the analytic model. Writes
 * the n valid slots only: padding slots keep stale values, which the
 * vector kernels compute on but mask out of every result.
 */
void ellipsoidsFromModel(TileSoA &soa, const DiscriminationModel &model);

/**
 * Stage 2 for any per-axis extrema backend: per pixel, extrema(e, 0)
 * and extrema(e, 2) of the ellipsoid in kCx..kAz into the twelve
 * extrema lanes. The scalar extremaBoth kernel is this loop over
 * extremaBothAxes. Writes the n valid slots only.
 */
void extremaFromBackend(TileSoA &soa, const ExtremaFn &extrema);

/** Kernel table of a specific level (Scalar is always available). */
const TileKernels &tileKernels(SimdLevel level);

/** Kernel table of activeSimdLevel(). */
inline const TileKernels &
activeTileKernels()
{
    return tileKernels(activeSimdLevel());
}

} // namespace pce::simd

#endif // PCE_SIMD_TILE_KERNELS_HH
