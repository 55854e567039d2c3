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

#include <cstring>

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
    static D incIf(D a, M m) { return _mm512_mask_add_pd(a, m, a, bc(1.0)); }
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

    static void
    storeRgb12(uint8_t *out, D v, std::size_t g)
    {
        // The low three bytes of each 32-bit lane, packed per 128-bit
        // half.
        const __m256i b = _mm256_shuffle_epi8(
            _mm512_cvttpd_epi32(v),
            _mm256_setr_epi8(0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1,
                             -1, -1, -1, 0, 1, 2, 4, 5, 6, 8, 9, 10, 12,
                             13, 14, -1, -1, -1, -1));
        const __m128i q = g == 0 ? _mm256_castsi256_si128(b)
                                 : _mm256_extracti128_si256(b, 1);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out), q);
        const int last = _mm_cvtsi128_si32(_mm_srli_si128(q, 8));
        std::memcpy(out + 8, &last, 4);
    }
};

} // namespace

const TileKernels &
avx512TileKernels()
{
    return vectorTileKernels<Avx512>();
}

} // namespace pce::simd
