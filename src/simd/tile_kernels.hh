/**
 * @file
 * SIMD kernel layer of the tile adjust datapath, with runtime dispatch.
 *
 * The per-pixel stages of the Fig. 7 tile flow —
 *
 *  1. ellipsoid construction (clamp, RGB->DKL, analytic semi-axes),
 *  2. fused both-axes quadric extrema (Eq. 11-13),
 *  3. along one optimization axis, the HL/LH reduction and the
 *     movement clamping/apply, reducing each stored candidate channel
 *     to its value range,
 *  4. sRGB quantization of the chosen candidate into the output rows —
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

#include "common/srgb8_table.hh"
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
 * The gamut-clamp count and the per-channel value range of a stage-3
 * candidate over its n valid lanes. lo / hi are the min / max of the
 * non-NaN lanes (+inf / -inf when there are none; a zero of either
 * sign may stand for both), nan[c] is set when any valid lane of
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
 * Stage 3 result along one axis: the Fig. 7 step-2 planes, the case
 * they select, and the stored candidate's range. The defaults are the
 * outcome of an empty tile.
 */
struct AxisMove
{
    double hlPlane = 0.0;  ///< HL: the highest of the axis' low extrema
    double lhPlane = 0.0;  ///< LH: the lowest of the high extrema
    bool collapse = true;  ///< HL <= LH: the Fig. 6b common plane (C2)
    CandidateRange range;
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
     * Stage 3 along one axis, [0] for Red (axis 0) and [1] for Blue
     * (axis 2), each instantiated for its axis. Fig. 7 step 2 reduces
     * the axis' extrema lanes over the n >= 1 valid lanes: HL is the
     * sequential std::max fold of the low lane from -1e300, LH the
     * std::min fold of the high lane from 1e300, bit for bit (NaN
     * lanes are skipped; of equal values the first lane's stays, which
     * decides the sign of a zero). HL > LH is case C1: every pixel's
     * axis channel is clamped into [LH, HL] (Fig. 6a); otherwise it
     * moves to the common plane 0.5 * (HL + LH) (Fig. 6b). Each pixel
     * moves along its extrema vector to that target, clamped to the
     * RGB gamut, into the axis' output lanes (kOutRed* / kOutBlue*),
     * and each channel is folded into its value range as it is stored.
     */
    AxisMove (*moveAxis[2])(TileSoA &soa);

    /**
     * Stage 4: quantize the candidate of @p axis (0 or 2) to
     * interleaved 8-bit sRGB codes through @p table, straight into an
     * image's rows: pixel k (row-major over a tile @p width pixels
     * wide) goes to dst + (k / width) * row_bytes + 3 * (k % width).
     * Equals linearToSrgb8Planar of the candidate's n lanes, given
     * that soa.codesOf(axis) bounds every lane's code
     * (bdTileBitsFromRange leaves the exact range there). The vector
     * kernels count the thresholds (Srgb8Table::codeMin) each lane
     * reaches above its channel's lo code, and look a channel whose
     * code range is wide up in the table (srgbCodeLanes).
     */
    void (*quantize)(const TileSoA &soa, int axis, const Srgb8Table &table,
                     std::size_t width, uint8_t *dst,
                     std::size_t row_bytes);
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

/**
 * codes[i] = table.code(x[i]) for i < n, as doubles: stage 4's table
 * lookup, built for the baseline ISA so the vector kernels can call it
 * for a channel whose code range is too wide to count thresholds
 * across.
 */
void srgbCodeLanes(const Srgb8Table &table, const double *x, std::size_t n,
                   double *codes);

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
