/**
 * @file
 * AVX2 kernels of the tile adjust datapath: 4 pixels per instruction.
 *
 * This TU only defines the 4-lane vector traits (__m256d, vector-register
 * masks, movemask) and instantiates the kernel table; the kernel bodies
 * and the bit-identity rules they follow are in tile_kernels_vec.hh.
 */

#include <immintrin.h>

#include <cstring>

#include "simd/tile_kernels_vec.hh"

namespace pce::simd {

namespace {

struct Avx2
{
    using D = __m256d;
    using M = __m256d;  ///< all-ones / all-zeros per lane
    static constexpr std::size_t kWidth = 4;

    static D load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, D v) { _mm256_storeu_pd(p, v); }
    static D bc(double v) { return _mm256_set1_pd(v); }

    static D add(D a, D b) { return _mm256_add_pd(a, b); }
    static D sub(D a, D b) { return _mm256_sub_pd(a, b); }
    static D mul(D a, D b) { return _mm256_mul_pd(a, b); }
    static D div(D a, D b) { return _mm256_div_pd(a, b); }
    static D sqrt(D a) { return _mm256_sqrt_pd(a); }

    static M lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
    static M gt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
    static M ge(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
    static M eq(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
    static M ne(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_NEQ_OQ); }
    static M neOrNan(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ); }
    static M isNan(D a) { return _mm256_cmp_pd(a, a, _CMP_UNORD_Q); }

    /** blendv selects b where the mask lane's sign bit is set. */
    static D sel(D a, D b, M m) { return _mm256_blendv_pd(a, b, m); }
    static D incIf(D a, M m) { return add(a, _mm256_and_pd(m, bc(1.0))); }
    static M mand(M a, M b) { return _mm256_and_pd(a, b); }
    static M mor(M a, M b) { return _mm256_or_pd(a, b); }
    static M mandnot(M a, M b) { return _mm256_andnot_pd(a, b); }
    static unsigned bits(M m)
    { return static_cast<unsigned>(_mm256_movemask_pd(m)); }
    static M
    fromBits(unsigned b)
    {
        const __m256i lane = _mm256_setr_epi64x(1, 2, 4, 8);
        return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
            _mm256_and_si256(_mm256_set1_epi64x(b), lane), lane));
    }

    static D absv(D v) { return _mm256_andnot_pd(bc(-0.0), v); }
    static D vmin(D a, D b) { return _mm256_min_pd(a, b); }
    static D vmax(D a, D b) { return _mm256_max_pd(a, b); }

    static double
    hmin(D v)
    {
        const __m128d m = _mm_min_pd(_mm256_castpd256_pd128(v),
                                     _mm256_extractf128_pd(v, 1));
        return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
    }

    static double
    hmax(D v)
    {
        const __m128d m = _mm_max_pd(_mm256_castpd256_pd128(v),
                                     _mm256_extractf128_pd(v, 1));
        return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
    }

    static void
    storeRgb12(uint8_t *out, D v, std::size_t)
    {
        // The low three bytes of each 32-bit lane, packed.
        const __m128i q = _mm_shuffle_epi8(
            _mm256_cvttpd_epi32(v),
            _mm_setr_epi8(0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, -1, -1,
                          -1, -1));
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out), q);
        const int last = _mm_cvtsi128_si32(_mm_srli_si128(q, 8));
        std::memcpy(out + 8, &last, 4);
    }
};

} // namespace

const TileKernels &
avx2TileKernels()
{
    return vectorTileKernels<Avx2>();
}

} // namespace pce::simd
