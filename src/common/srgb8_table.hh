/**
 * @file
 * Layout and lookup of the quantizing sRGB forward table.
 *
 * src/color builds the one instance (srgb8Table(), color/srgb.hh) and
 * its linearToSrgb8 quantizes through it. The type lives here, below
 * both, so the tile flow's quantize kernels (src/simd) can take the
 * table as an argument without depending on src/color.
 */

#ifndef PCE_COMMON_SRGB8_TABLE_HH
#define PCE_COMMON_SRGB8_TABLE_HH

#include <cstdint>

namespace pce {

/**
 * Bucket count of the forward table. The steepest slope of the forward
 * map is 12.92 * 255 ~= 3295 codes per unit input (the linear segment),
 * so with 4096 buckets over [0,1) a bucket spans < 1 code and the code
 * of any x is either the bucket's base code or the next one.
 */
inline constexpr int kSrgbFwdBuckets = 4096;

/** The quantizing forward map linear [0,1] -> 8-bit sRGB code. */
struct Srgb8Table
{
    /**
     * The code thresholds: codeMin[c] is the smallest double in [0,1]
     * whose reference code is >= c (found by bisection over the
     * closed-form reference, so exact); codeMin[256] is an unreachable
     * sentinel. The code of any x, NaN included, is the number of c in
     * 1..255 with x >= codeMin[c].
     */
    double codeMin[257];
    /** Code of each bucket's lower edge, b / kSrgbFwdBuckets. */
    uint8_t bucketCode[kSrgbFwdBuckets];

    /**
     * The code of @p x: values outside [0,1] clamp, NaN maps to 0. A
     * hot loop fetches the table once and calls this inline.
     */
    uint8_t
    code(double x) const
    {
        if (!(x > 0.0))
            return 0;
        if (x >= 1.0)
            return 255;
        const uint8_t c = bucketCode[static_cast<int>(x * kSrgbFwdBuckets)];
        // A bucket spans at most one code boundary.
        return static_cast<uint8_t>(c + (x >= codeMin[c + 1]));
    }
};

} // namespace pce

#endif // PCE_COMMON_SRGB8_TABLE_HH
