/**
 * @file
 * AVX-512 kernels of the tile adjust datapath: 8 pixels per instruction.
 *
 * This TU only defines the 8-lane vector traits (__m512d, __mmask8
 * masks) and instantiates the kernel table; the kernel bodies and the
 * bit-identity rules they follow are in tile_kernels_vec.hh. Built with
 * -mavx512f -mavx512dq (DQ for the 512-bit andnot) and dispatched only
 * when CPUID reports both.
 */

#include <immintrin.h>

#include "simd/tile_kernels_vec.hh"

namespace pce::simd {

namespace {

struct Avx512
{
    using D = __m512d;
    using M = __mmask8;  ///< bit k = lane k
    static constexpr std::size_t kWidth = 8;

    static D load(const double *p) { return _mm512_loadu_pd(p); }
    static void store(double *p, D v) { _mm512_storeu_pd(p, v); }
    static D bc(double v) { return _mm512_set1_pd(v); }

    static D add(D a, D b) { return _mm512_add_pd(a, b); }
    static D sub(D a, D b) { return _mm512_sub_pd(a, b); }
    static D mul(D a, D b) { return _mm512_mul_pd(a, b); }
    static D div(D a, D b) { return _mm512_div_pd(a, b); }
    static D sqrt(D a) { return _mm512_sqrt_pd(a); }

    static M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
    static M gt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
    static M ge(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ); }
    static M eq(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
    static M ne(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_OQ); }
    static M neOrNan(D a, D b)
    { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ); }
    static M isNan(D a) { return _mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q); }

    static D sel(D a, D b, M m) { return _mm512_mask_blend_pd(m, a, b); }
    static M mand(M a, M b) { return static_cast<M>(a & b); }
    static M mor(M a, M b) { return static_cast<M>(a | b); }
    static M mandnot(M a, M b) { return static_cast<M>(~a & b); }
    static unsigned bits(M m) { return m; }
    static M fromBits(unsigned b) { return static_cast<M>(b); }

    static D absv(D v) { return _mm512_andnot_pd(bc(-0.0), v); }
    static D vmin(D a, D b) { return _mm512_min_pd(a, b); }
    static D vmax(D a, D b) { return _mm512_max_pd(a, b); }

    static double hmin(D v) { return _mm512_reduce_min_pd(v); }
    static double hmax(D v) { return _mm512_reduce_max_pd(v); }
};

} // namespace

const TileKernels &
avx512TileKernels()
{
    return vectorTileKernels<Avx512>();
}

} // namespace pce::simd
