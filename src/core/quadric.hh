/**
 * @file
 * Ellipsoid transformation and extrema computation (paper Sec. 3.4).
 *
 * Discrimination ellipsoids are axis-aligned in DKL space but become
 * general quadric surfaces in linear RGB (Eq. 9-10). The color-adjustment
 * algorithm needs, per pixel, the two points of its ellipsoid with the
 * highest/lowest value along the optimization axis (Red or Blue): the
 * "extrema" connected by the extrema vector (Fig. 6, Eq. 11-13).
 *
 * Two implementations are provided:
 *  - extremaAlongAxis(): the paper's hardware datapath — gradient planes
 *    from the quadric coefficients, cross product (Eq. 12), then a
 *    line-ellipsoid intersection in DKL space (Eq. 13). This mirrors
 *    what the Compute Extrema Block of the CAU evaluates (Fig. 8).
 *  - extremaAlongAxisLagrange(): an independent closed form (support
 *    points of a linear functional over an ellipsoid). Tests assert both
 *    agree to floating-point tolerance for random colors/eccentricities.
 */

#ifndef PCE_CORE_QUADRIC_HH
#define PCE_CORE_QUADRIC_HH

#include <array>
#include <functional>

#include "common/mat3.hh"
#include "common/vec3.hh"
#include "perception/discrimination.hh"

namespace pce {

/**
 * A quadric surface in linear RGB space stored unnormalized as
 * value(p) = p^T Q3 p + lin . p + c, with value < 0 strictly inside.
 *
 * The paper's Eq. 9 form (A..I with a +1 constant) is this divided by c;
 * paperCoefficients() returns that normalization for the Eq. 12 datapath
 * and for tests against Eq. 10.
 */
struct Quadric
{
    Mat3 q3;    ///< symmetric quadratic part
    Vec3 lin;   ///< linear part
    double c = 0.0;  ///< constant part

    /**
     * Build the RGB-space quadric of a DKL discrimination ellipsoid
     * (Eq. 10, derived by direct substitution d = M_RGB2DKL * p).
     */
    static Quadric fromDklEllipsoid(const Ellipsoid &e);

    /** Evaluate the quadric at a linear-RGB point. */
    double value(const Vec3 &rgb) const;

    /** True if the RGB point is inside or on the surface. */
    bool contains(const Vec3 &rgb, double tol = 1e-12) const
    { return value(rgb) <= tol; }

    /**
     * Paper Eq. 9 coefficients (A, B, C, D, E, F, G, H, I).
     * @throws std::domain_error when the constant term is zero (the
     *         normalized form does not exist; cannot happen for
     *         discrimination ellipsoids, whose centers lie strictly
     *         inside, making value(center) = -scale < 0 and c != 0
     *         whenever the center is not the RGB origin-mapped point).
     */
    std::array<double, 9> paperCoefficients() const;
};

/** The high/low points of an ellipsoid along one RGB axis. */
struct ExtremaPair
{
    Vec3 high;  ///< RGB point with the largest value on the axis
    Vec3 low;   ///< RGB point with the smallest value on the axis

    /** The extrema vector V of Fig. 6 (from low to high). */
    Vec3 extremaVector() const { return high - low; }
};

/**
 * Extrema of a DKL ellipsoid along RGB axis @p axis (0 = R, 2 = B)
 * using the paper's Eq. 11-13 datapath.
 */
ExtremaPair extremaAlongAxis(const Ellipsoid &e, int axis);

/**
 * Axis-independent per-ellipsoid precomputation of the Eq. 11-13
 * datapath, built once and shared by both optimization axes. Holds the
 * quadric's quadratic part (the linear and constant parts never enter
 * the extrema computation), the inverse squared semi-axes (reused by
 * the Eq. 13 normalization), and the RGB-space center.
 *
 * Exposed (rather than file-local in quadric.cc) because the SIMD
 * kernel layer's scalar reference path (src/simd) evaluates extrema
 * through exactly these helpers — the bit-identity contract between
 * dispatch levels is anchored to this code.
 */
struct ExtremaFrame
{
    Mat3 q3;          ///< M^T S M, S = diag(1/s_i^2)
    Vec3 sInv2;       ///< 1 / s_i^2
    Vec3 rgbCenter;   ///< M^-1 * centerDkl
};

/** Build the shared frame of @p e (the axis-independent half). */
ExtremaFrame buildExtremaFrame(const Ellipsoid &e);

/**
 * The per-axis half of the Eq. 11-13 datapath.
 * @throws std::domain_error on a degenerate (zero-denominator) frame.
 */
ExtremaPair extremaFromFrame(const ExtremaFrame &f, int axis);

/**
 * Pluggable extrema backend of the tile adjuster. The default is the
 * double-precision Eq. 11-13 datapath (extremaBothAxes); the
 * hardware-fidelity ablation substitutes the fixed-point datapath of
 * src/hw/fixed_datapath.hh to measure end-to-end effects of datapath
 * width.
 */
using ExtremaFn = std::function<ExtremaPair(const Ellipsoid &, int)>;

/** Independent Lagrangian closed form; used as a cross-check. */
ExtremaPair extremaAlongAxisLagrange(const Ellipsoid &e, int axis);

/**
 * Extrema along both optimization axes (Red = 0 and Blue = 2) of the
 * same ellipsoid, sharing the quadric transform between them. The tile
 * adjuster evaluates both axes for every pixel (Fig. 7), and the
 * quadric construction — two 3x3 matrix products — is the dominant cost
 * of extremaAlongAxis; building it once halves that. Results are
 * bit-identical to calling extremaAlongAxis(e, 0) and (e, 2).
 */
void extremaBothAxes(const Ellipsoid &e, ExtremaPair &red,
                     ExtremaPair &blue);

} // namespace pce

#endif // PCE_CORE_QUADRIC_HH
