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

struct SrgbTables
{
    /** srgbToLinearContinuous(c) for every 8-bit code c. */
    double toLinear[256];
    Srgb8Table fwd;

    SrgbTables()
    {
        for (int c = 0; c < 256; ++c)
            toLinear[c] =
                srgbToLinearContinuous(static_cast<double>(c));

        fwd.codeMin[0] = 0.0;
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
            fwd.codeMin[c] = hi;
        }
        fwd.codeMin[256] = 2.0;

        for (int b = 0; b < kSrgbFwdBuckets; ++b)
            fwd.bucketCode[b] = linearToSrgb8Reference(
                static_cast<double>(b) / kSrgbFwdBuckets);
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

const Srgb8Table &
srgb8Table()
{
    return tables().fwd;
}

uint8_t
linearToSrgb8(double x)
{
    return srgb8Table().code(x);
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
    const Srgb8Table &t = srgb8Table();
    out[0] = t.code(rgb.x);
    out[1] = t.code(rgb.y);
    out[2] = t.code(rgb.z);
}

void
linearToSrgb8(const Vec3 *pixels, std::size_t n, uint8_t *codes)
{
    const Srgb8Table &t = srgb8Table();
    for (std::size_t i = 0; i < n; ++i) {
        codes[3 * i + 0] = t.code(pixels[i].x);
        codes[3 * i + 1] = t.code(pixels[i].y);
        codes[3 * i + 2] = t.code(pixels[i].z);
    }
}

void
linearToSrgb8Planar(const double *x, const double *y, const double *z,
                    std::size_t n, uint8_t *codes)
{
    const Srgb8Table &t = srgb8Table();
    for (std::size_t i = 0; i < n; ++i) {
        codes[3 * i + 0] = t.code(x[i]);
        codes[3 * i + 1] = t.code(y[i]);
        codes[3 * i + 2] = t.code(z[i]);
    }
}

Vec3
srgb8ToLinear(const uint8_t in[3])
{
    return {srgb8ToLinear(in[0]), srgb8ToLinear(in[1]), srgb8ToLinear(in[2])};
}

} // namespace pce
