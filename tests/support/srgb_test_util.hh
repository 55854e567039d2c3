/**
 * @file
 * sRGB quantizer oracle shared by test suites: the code thresholds of
 * linearToSrgb8, found by bisection on the closed-form reference
 * (linearToSrgb8Reference), never through the production LUT. Used by
 * tests/color/test_color.cc (the LUT is a monotone step function) and
 * tests/simd/test_simd_kernels.cc (threshold values for the tile cost
 * kernels). Header-only so the test CMake glob needs no support
 * library; not part of the shipped library.
 */

#ifndef PCE_TESTS_SUPPORT_SRGB_TEST_UTIL_HH
#define PCE_TESTS_SUPPORT_SRGB_TEST_UTIL_HH

#include <cmath>

#include "color/srgb.hh"

namespace pce::testsrgb {

/** Smallest double in (0, 1] the reference quantizes to >= @p code. */
inline double
codeThreshold(int code)
{
    double lo = 0.0; // reference(lo) < code
    double hi = 1.0; // reference(hi) >= code
    while (hi > std::nextafter(lo, 2.0)) {
        const double mid = 0.5 * (lo + hi);
        if (linearToSrgb8Reference(mid) >= code)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace pce::testsrgb

#endif // PCE_TESTS_SUPPORT_SRGB_TEST_UTIL_HH
