/**
 * @file
 * Linear RGB <-> sRGB gamma transforms (paper Eq. 1).
 *
 * Rendering operates in linear RGB with each channel in [0,1]. Output
 * encoding (and therefore BD compression) operates in 8-bit sRGB. The
 * forward transform f_s2r follows Eq. 1 of the paper: a linear segment
 * near black and a 1/2.4 power segment elsewhere, scaled to [0,255].
 *
 * The quantizing forward map linearToSrgb8() and the inverse
 * srgb8ToLinear() are table-driven: the encoder evaluates the forward
 * map three times per delivered pixel, and the pow calls of the
 * continuous forms dominated the profile. The forward
 * table is a 4096-bucket code index plus per-code exact double
 * thresholds (found by bisection over the reference), which makes the
 * fast path bit-exact with linearToSrgb8Reference() for every input —
 * tests/color sweeps this exhaustively.
 */

#ifndef PCE_COLOR_SRGB_HH
#define PCE_COLOR_SRGB_HH

#include <cstddef>
#include <cstdint>

#include "common/srgb8_table.hh"
#include "common/vec3.hh"

namespace pce {

/**
 * Forward gamma: linear RGB channel in [0,1] -> continuous sRGB value in
 * [0,255] *before* quantization. Split out so the optimizer can reason
 * about the continuous map (Sec. 3.2 uses f_s2r inside the objective).
 */
double linearToSrgbContinuous(double x);

/**
 * The forward table linearToSrgb8 quantizes through (built on first
 * use). A hot loop fetches it once and calls Srgb8Table::code, which
 * inlines; the tile flow hands it to its quantize kernels.
 */
const Srgb8Table &srgb8Table();

/**
 * Eq. 1: linear RGB channel in [0,1] -> quantized 8-bit sRGB code.
 * Values outside [0,1] are clamped first, NaN maps to 0. Table-driven;
 * bit-exact with linearToSrgb8Reference(). A non-decreasing step
 * function of x (tests/color pins every step), so the code range of a
 * set of values is the codes of its value range: the tile adjuster's
 * candidate cost (bdTileBitsFromRange) relies on this.
 */
uint8_t linearToSrgb8(double x);

/**
 * The direct pow-based evaluation of the quantizing forward map; the
 * ground truth the LUT path is validated against. Not for hot paths.
 */
uint8_t linearToSrgb8Reference(double x);

/**
 * Inverse gamma: 8-bit sRGB code -> linear RGB channel in [0,1].
 * Table-driven (256 entries); bit-exact with srgbToLinearContinuous.
 */
double srgb8ToLinear(uint8_t code);

/** Continuous inverse gamma on a [0,255] sRGB value. */
double srgbToLinearContinuous(double s);

/** Apply linearToSrgb8 per channel. */
void linearToSrgb8(const Vec3 &rgb, uint8_t out[3]);

/**
 * Quantize @p n linear-RGB pixels to interleaved 8-bit sRGB codes
 * (3 bytes per pixel). One call per tile/row amortizes the call and
 * table-lookup setup that a per-channel loop pays 3n times; the frame
 * pass's bypassed tile rows and toSrgb8 both run through this.
 */
void linearToSrgb8(const Vec3 *pixels, std::size_t n, uint8_t *codes);

/**
 * Planar variant of the batched quantizer: channels arrive as separate
 * x/y/z arrays (the TileSoA lane layout of src/simd) and leave as the
 * same interleaved 3-byte codes. Bit-identical to the Vec3 overload on
 * the same values. The reference oracle of the tile flow's candidate
 * cost and quantize kernels (tests/simd).
 */
void linearToSrgb8Planar(const double *x, const double *y,
                         const double *z, std::size_t n, uint8_t *codes);

/** Apply srgb8ToLinear per channel. */
Vec3 srgb8ToLinear(const uint8_t in[3]);

} // namespace pce

#endif // PCE_COLOR_SRGB_HH
