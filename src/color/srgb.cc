#include "color/srgb.hh"

#include <algorithm>
#include <cmath>

namespace pce {

namespace {

constexpr double kLinearCutoff = 0.0031308;
constexpr double kLinearSlope = 12.92;
constexpr double kGamma = 2.4;
constexpr double kA = 0.055;

// Inverse-direction cutoff: kLinearSlope * kLinearCutoff.
constexpr double kSrgbCutoff = kLinearSlope * kLinearCutoff;

/**
 * Bucket count of the forward LUT. The steepest slope of the forward
 * map is 12.92 * 255 ~= 3295 codes per unit input (the linear segment),
 * so with 4096 buckets over [0,1) a bucket spans < 1 code and the code
 * of any x is either the bucket's base code or the next one.
 */
constexpr int kFwdBuckets = 4096;

struct SrgbTables
{
    /** srgbToLinearContinuous(c) for every 8-bit code c. */
    double toLinear[256];
    /** Code of the bucket's lower edge: reference(b / kFwdBuckets). */
    uint8_t bucketCode[kFwdBuckets];
    /**
     * codeMin[c] is the smallest double in [0,1] whose reference code
     * is >= c (bisection over reference doubles — exact, not analytic).
     * codeMin[256] is an unreachable sentinel.
     */
    double codeMin[257];

    SrgbTables()
    {
        for (int c = 0; c < 256; ++c)
            toLinear[c] =
                srgbToLinearContinuous(static_cast<double>(c));

        codeMin[0] = 0.0;
        for (int c = 1; c < 256; ++c) {
            double lo = 0.0;   // reference(lo) < c
            double hi = 1.0;   // reference(hi) >= c
            while (hi > std::nextafter(lo, 2.0)) {
                const double mid = 0.5 * (lo + hi);
                if (linearToSrgb8Reference(mid) >=
                    static_cast<int>(c))
                    hi = mid;
                else
                    lo = mid;
            }
            codeMin[c] = hi;
        }
        codeMin[256] = 2.0;

        for (int b = 0; b < kFwdBuckets; ++b)
            bucketCode[b] = linearToSrgb8Reference(
                static_cast<double>(b) / kFwdBuckets);
    }
};

const SrgbTables &
tables()
{
    static const SrgbTables t;
    return t;
}

} // namespace

double
linearToSrgbContinuous(double x)
{
    x = std::clamp(x, 0.0, 1.0);
    double s;
    if (x <= kLinearCutoff)
        s = kLinearSlope * x;
    else
        s = (1.0 + kA) * std::pow(x, 1.0 / kGamma) - kA;
    return s * 255.0;
}

uint8_t
linearToSrgb8Reference(double x)
{
    // Round-to-nearest quantization of the continuous map. The paper's
    // Eq. 1 writes a floor over the normalized value; rounding is what
    // 8-bit framebuffer encodes actually do and keeps the inverse map
    // within half a code of the identity.
    const double s = linearToSrgbContinuous(x);
    const double q = std::floor(s + 0.5);
    return static_cast<uint8_t>(std::clamp(q, 0.0, 255.0));
}

namespace {

inline uint8_t
lutForward(const SrgbTables &t, double x)
{
    if (!(x > 0.0))
        return 0;
    if (x >= 1.0)
        return 255;
    const int b = static_cast<int>(x * kFwdBuckets);
    uint8_t c = t.bucketCode[b];
    // A bucket spans at most one code boundary (see kFwdBuckets).
    if (x >= t.codeMin[c + 1])
        ++c;
    return c;
}

} // namespace

uint8_t
linearToSrgb8(double x)
{
    return lutForward(tables(), x);
}

double
srgbToLinearContinuous(double s)
{
    s = std::clamp(s, 0.0, 255.0) / 255.0;
    if (s <= kSrgbCutoff)
        return s / kLinearSlope;
    return std::pow((s + kA) / (1.0 + kA), kGamma);
}

double
srgb8ToLinear(uint8_t code)
{
    return tables().toLinear[code];
}

void
linearToSrgb8(const Vec3 &rgb, uint8_t out[3])
{
    const SrgbTables &t = tables();
    out[0] = lutForward(t, rgb.x);
    out[1] = lutForward(t, rgb.y);
    out[2] = lutForward(t, rgb.z);
}

void
linearToSrgb8(const Vec3 *pixels, std::size_t n, uint8_t *codes)
{
    const SrgbTables &t = tables();
    for (std::size_t i = 0; i < n; ++i) {
        codes[3 * i + 0] = lutForward(t, pixels[i].x);
        codes[3 * i + 1] = lutForward(t, pixels[i].y);
        codes[3 * i + 2] = lutForward(t, pixels[i].z);
    }
}

void
linearToSrgb8Planar(const double *x, const double *y, const double *z,
                    std::size_t n, uint8_t *codes)
{
    const SrgbTables &t = tables();
    for (std::size_t i = 0; i < n; ++i) {
        codes[3 * i + 0] = lutForward(t, x[i]);
        codes[3 * i + 1] = lutForward(t, y[i]);
        codes[3 * i + 2] = lutForward(t, z[i]);
    }
}

Vec3
srgb8ToLinear(const uint8_t in[3])
{
    return {srgb8ToLinear(in[0]), srgb8ToLinear(in[1]), srgb8ToLinear(in[2])};
}

} // namespace pce
