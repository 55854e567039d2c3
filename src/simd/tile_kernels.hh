/**
 * @file
 * SIMD kernel layer of the tile adjust datapath, with runtime dispatch.
 *
 * The per-pixel stages of the Fig. 7 tile flow —
 *
 *  1. ellipsoid construction (clamp, RGB->DKL, analytic semi-axes),
 *  2. fused both-axes quadric extrema (Eq. 11-13),
 *  3. movement clamping/apply along one optimization axis,
 *  4. fused sRGB quantization + BD bit cost of a candidate —
 *
 * are exposed as data-parallel kernels over the planar TileSoA lanes.
 * Two implementations exist behind one function table: a portable
 * scalar build (always present; it *is* the reference datapath, calling
 * the model/quadric code of src/perception and src/core per pixel) and
 * an AVX2 build processing 4 pixels per instruction, compiled into its
 * own TU with -mavx2 and selected at runtime by CPUID. Stages 1 and 2
 * also have undispatched forms for any DiscriminationModel / ExtremaFn
 * (ellipsoidsFromModel, extremaFromBackend): the scalar kernels' loop
 * bodies with the model or backend as a parameter.
 *
 * Bit-identity contract: every level produces bit-identical doubles for
 * every input. The AVX2 kernels replicate the scalar code's exact
 * operation sequence (same association, no FMA contraction — the AVX2
 * TU is built with -ffp-contract=off, and vector mul/add/div/sqrt are
 * IEEE-exact per element), and min/max/clamp are implemented as
 * compare+blend with the precise semantics of the std:: forms they
 * mirror. tests/simd sweeps every available level against the scalar
 * reference and asserts equality, not tolerance.
 *
 * Dispatch override: set FOVE_SIMD=off (or =scalar) to force the
 * portable kernels, FOVE_SIMD=avx2 to request AVX2 (clamped to what the
 * CPU supports), FOVE_SIMD=auto / unset for CPUID detection.
 */

#ifndef PCE_SIMD_TILE_KERNELS_HH
#define PCE_SIMD_TILE_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "core/quadric.hh"
#include "perception/discrimination.hh"
#include "simd/tile_soa.hh"

namespace pce::simd {

/** Instruction-set level of a kernel table. */
enum class SimdLevel
{
    Scalar,  ///< portable reference kernels
    Avx2,    ///< 4-wide AVX2 kernels
};

/** Human-readable level name ("scalar" / "avx2"). */
const char *simdLevelName(SimdLevel level);

/**
 * Highest level this CPU supports (CPUID; Scalar when the AVX2 TU was
 * not built for this target).
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
 * a level the CPU/build cannot run is clamped to Scalar. Callers that
 * report or record their dispatch level must use this, never the raw
 * request.
 */
SimdLevel effectiveSimdLevel(SimdLevel requested);

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
     * axis 2).
     *
     * @param axis     Optimization axis, 0 (Red) or 2 (Blue).
     * @param collapse True for the Fig. 6b common-plane case (C2).
     * @param target   Collapse plane 0.5 * (hl + lh); ignored unless
     *                 @p collapse.
     * @param lh,hl    The LH / HL planes (Fig. 6a clamp interval).
     * @return Number of pixels whose movement was shortened by the
     *         gamut clamp.
     */
    int (*moveAxis)(TileSoA &soa, int axis, bool collapse, double target,
                    double lh, double hl);

    /**
     * Stage 4: BD bit cost of one adjusted candidate straight from its
     * planar lanes (kOutRed* for axis 0, kOutBlue* for axis 2). sRGB-
     * quantizes each channel (bit-identical with linearToSrgb8; the
     * same process-wide tables back every level) and folds the per-
     * channel min/max reduction in, so no interleaved code buffer for
     * bdTileBitsFromCodes is ever materialized.
     * Returns meta(4) + base(8) + n * ceil(log2(range+1)) bits per
     * channel, exactly bdTileBitsFromCodes' accounting.
     */
    std::size_t (*tileCost)(const TileSoA &soa, int axis);

    /**
     * BD stats kernel: per-channel min/max over one tile of interleaved
     * 8-bit sRGB pixels (the pass-1 scan of BdCodec::encodeInto). Unlike
     * the TileSoA kernels this one runs in the byte domain, directly on
     * the image's interleaved rows — min/max over integers is
     * order-independent, so every level is trivially bit-identical.
     *
     * @param rows   First pixel of the tile, 3 bytes per pixel.
     * @param stride Byte distance between successive tile rows (the
     *               image row pitch).
     * @param width  Pixels per tile row (>= 1).
     * @param height Tile rows (>= 1).
     * @param end    One past the last readable byte of the image
     *               buffer; vector loads never touch [end, ...). Rows
     *               whose 32-byte window would cross it fall back to a
     *               scalar tail.
     * @param lo,hi  Outputs: per-channel minimum / maximum.
     */
    void (*bdTileMinMax)(const uint8_t *rows, std::size_t stride,
                         int width, int height, const uint8_t *end,
                         uint8_t lo[3], uint8_t hi[3]);
};

/**
 * Stage 1 for any discrimination model: per pixel,
 * model.ellipsoidFor(pixel.clamped(0, 1), ecc) into kCx..kAz. The
 * scalar ellipsoids kernel is this loop over the analytic model. Writes
 * the n valid slots only: padding slots keep stale values, which the
 * AVX2 kernels compute on but mask out of every result.
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
