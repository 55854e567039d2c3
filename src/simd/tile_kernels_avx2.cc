/**
 * @file
 * AVX2 kernels of the tile adjust datapath: 4 pixels per instruction.
 *
 * Bit-identity with the scalar reference (tile_kernels_scalar.cc) is a
 * hard contract, enforced by tests/simd with exact equality. The rules
 * that make it hold:
 *
 *  - Every arithmetic step mirrors the scalar code's exact operation
 *    sequence and association. Vector add/sub/mul/div/sqrt are
 *    IEEE-754-exact per element, so identical sequences give identical
 *    bits. This TU is compiled with -ffp-contract=off (and intrinsics
 *    are never contracted anyway), so no FMA can reassociate a rounding
 *    step the scalar build performed in two.
 *  - min/max/clamp are NOT the minpd/maxpd instructions (whose NaN and
 *    +/-0 semantics differ from std::min/std::max): they are
 *    compare+blend sequences mirroring the exact ternaries of the
 *    scalar code, including NaN fall-through. (The cost kernel's value
 *    reductions are the one use of minpd/maxpd: their result only
 *    picks a code, which +/-0 cannot change, and NaN lanes are flagged
 *    separately.)
 *  - Branches become masks: each lane computes every path and blends in
 *    the scalar code's priority order (degenerate overrides in-gamut
 *    overrides the gamut-clamped path).
 *
 * The kernels run over the full padded stride of each lane (TileSoA
 * zero-fills input padding, which keeps the spare slots' math benign);
 * anything *observable* — the degenerate-ellipsoid check, the
 * gamut-clamp count and the cost kernel's value range — is masked to
 * the valid n lanes.
 */

#include "simd/tile_kernels.hh"

#include <immintrin.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "bd/bd_codec.hh"
#include "color/dkl.hh"
#include "color/srgb.hh"
#include "perception/discrimination.hh"

namespace pce::simd {

namespace {

using d4 = __m256d;

inline d4
load(const double *p)
{
    return _mm256_loadu_pd(p);
}

inline void
store(double *p, d4 v)
{
    _mm256_storeu_pd(p, v);
}

inline d4
bc(double v)
{
    return _mm256_set1_pd(v);
}

/** mask ? b : a (blendv selects b where the mask lane is all-ones). */
inline d4
sel(d4 a, d4 b, d4 mask)
{
    return _mm256_blendv_pd(a, b, mask);
}

/** Mirror of std::min(a, b) = (b < a) ? b : a. */
inline d4
minStd(d4 a, d4 b)
{
    return sel(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
}

/** Mirror of std::max(a, b) = (a < b) ? b : a. */
inline d4
maxStd(d4 a, d4 b)
{
    return sel(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
}

/** Mirror of v < lo ? lo : (v > hi ? hi : v), NaN passing through. */
inline d4
clampStd(d4 v, d4 lo, d4 hi)
{
    const d4 r = sel(v, hi, _mm256_cmp_pd(v, hi, _CMP_GT_OQ));
    return sel(r, lo, _mm256_cmp_pd(v, lo, _CMP_LT_OQ));
}

/** Mirror of std::abs (clear the sign bit). */
inline d4
absStd(d4 v)
{
    return _mm256_andnot_pd(bc(-0.0), v);
}

/**
 * Row r of the RGB->DKL matvec: ((m_r0 * x + m_r1 * y) + m_r2 * z),
 * the exact association of Vec3::dot.
 */
template <const Mat3 &M>
inline d4
matRow(int r, d4 x, d4 y, d4 z)
{
    return _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(bc(M(r, 0)), x),
                      _mm256_mul_pd(bc(M(r, 1)), y)),
        _mm256_mul_pd(bc(M(r, 2)), z));
}

void
ellipsoidsAvx2(TileSoA &soa, const AnalyticModelParams &params)
{
    const double *px = soa.lane(kPx);
    const double *py = soa.lane(kPy);
    const double *pz = soa.lane(kPz);
    const double *ec = soa.lane(kEcc);
    double *cx = soa.lane(kCx);
    double *cy = soa.lane(kCy);
    double *cz = soa.lane(kCz);
    double *ax = soa.lane(kAx);
    double *ay = soa.lane(kAy);
    double *az = soa.lane(kAz);

    const d4 zero = bc(0.0);
    const d4 one = bc(1.0);
    const d4 ecc_gain = bc(params.eccGain);
    const d4 weber_gain = bc(params.weberGain);
    const d4 lum_bias = bc(params.lumBias);
    const d4 lum_gain = bc(params.lumGain);
    const d4 global_scale = bc(params.globalScale);
    const d4 base[3] = {bc(params.base.x), bc(params.base.y),
                        bc(params.base.z)};
    const d4 inv_range[3] = {bc(kDklInvAxisRange[0]),
                             bc(kDklInvAxisRange[1]),
                             bc(kDklInvAxisRange[2])};

    for (std::size_t i = 0; i < soa.stride; i += kLaneWidth) {
        // Vec3::clamped(0, 1) on the raw pixel.
        const d4 r = clampStd(load(px + i), zero, one);
        const d4 g = clampStd(load(py + i), zero, one);
        const d4 b = clampStd(load(pz + i), zero, one);

        // rgbToDkl: the DKL center of the (in-gamut) pixel.
        const d4 dkl[3] = {matRow<kRgb2Dkl>(0, r, g, b),
                           matRow<kRgb2Dkl>(1, r, g, b),
                           matRow<kRgb2Dkl>(2, r, g, b)};

        // semiAxesWithDkl: std::max(0.0, ecc) = (0 < ecc) ? ecc : 0.
        const d4 e = load(ec + i);
        const d4 ecc = sel(zero, e, _mm256_cmp_pd(zero, e, _CMP_LT_OQ));
        const d4 ecc_scale =
            _mm256_add_pd(one, _mm256_mul_pd(ecc_gain, ecc));
        const d4 lum = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(bc(0.2126), r),
                          _mm256_mul_pd(bc(0.7152), g)),
            _mm256_mul_pd(bc(0.0722), b));
        const d4 lum_scale =
            _mm256_add_pd(lum_bias, _mm256_mul_pd(lum_gain, lum));
        const d4 common = _mm256_mul_pd(
            _mm256_mul_pd(lum_scale, ecc_scale), global_scale);

        double *out_c[3] = {cx + i, cy + i, cz + i};
        double *out_a[3] = {ax + i, ay + i, az + i};
        for (int k = 0; k < 3; ++k) {
            const d4 chroma =
                _mm256_mul_pd(absStd(dkl[k]), inv_range[k]);
            const d4 weber =
                _mm256_add_pd(one, _mm256_mul_pd(weber_gain, chroma));
            store(out_a[k],
                  _mm256_mul_pd(_mm256_mul_pd(base[k], weber), common));
            store(out_c[k], dkl[k]);
        }
    }
}

void
extremaBothAvx2(TileSoA &soa)
{
    const double *cx = soa.lane(kCx);
    const double *cy = soa.lane(kCy);
    const double *cz = soa.lane(kCz);
    const double *axp = soa.lane(kAx);
    const double *ayp = soa.lane(kAy);
    const double *azp = soa.lane(kAz);

    const d4 one = bc(1.0);
    const d4 zero = bc(0.0);

    for (std::size_t i = 0; i < soa.stride; i += kLaneWidth) {
        // buildExtremaFrame: sInv2 = 1 / s_k^2.
        const d4 sa[3] = {load(axp + i), load(ayp + i), load(azp + i)};
        d4 s_inv2[3];
        for (int k = 0; k < 3; ++k)
            s_inv2[k] = _mm256_div_pd(one, _mm256_mul_pd(sa[k], sa[k]));

        // q3 = M^T S M by its 6 unique entries, each
        // ((m0a*s0)*m0b + (m1a*s1)*m1b) + (m2a*s2)*m2b.
        d4 q[3][3];
        for (int a = 0; a < 3; ++a) {
            for (int b = a; b < 3; ++b) {
                const d4 t0 = _mm256_mul_pd(
                    _mm256_mul_pd(bc(kRgb2Dkl(0, a)), s_inv2[0]),
                    bc(kRgb2Dkl(0, b)));
                const d4 t1 = _mm256_mul_pd(
                    _mm256_mul_pd(bc(kRgb2Dkl(1, a)), s_inv2[1]),
                    bc(kRgb2Dkl(1, b)));
                const d4 t2 = _mm256_mul_pd(
                    _mm256_mul_pd(bc(kRgb2Dkl(2, a)), s_inv2[2]),
                    bc(kRgb2Dkl(2, b)));
                q[a][b] = _mm256_add_pd(_mm256_add_pd(t0, t1), t2);
                q[b][a] = q[a][b];
            }
        }

        // rgbCenter = M^-1 * centerDkl.
        const d4 c[3] = {load(cx + i), load(cy + i), load(cz + i)};
        const d4 rc[3] = {matRow<kDkl2Rgb>(0, c[0], c[1], c[2]),
                          matRow<kDkl2Rgb>(1, c[0], c[1], c[2]),
                          matRow<kDkl2Rgb>(2, c[0], c[1], c[2])};

        // extremaFromFrame for axis 0 (rows 1,2) and axis 2 (rows 0,1).
        const struct
        {
            int axis, a1, a2;
            Lane hx, hy, hz, lx, ly, lz;
        } passes[2] = {
            {0, 1, 2, kRedHighX, kRedHighY, kRedHighZ, kRedLowX,
             kRedLowY, kRedLowZ},
            {2, 0, 1, kBlueHighX, kBlueHighY, kBlueHighZ, kBlueLowX,
             kBlueLowY, kBlueLowZ},
        };
        for (const auto &p : passes) {
            // v = row(a1) x row(a2): each component (u*w' - w*u').
            const d4 *ra = q[p.a1];
            const d4 *rb = q[p.a2];
            const d4 v[3] = {
                _mm256_sub_pd(_mm256_mul_pd(ra[1], rb[2]),
                              _mm256_mul_pd(ra[2], rb[1])),
                _mm256_sub_pd(_mm256_mul_pd(ra[2], rb[0]),
                              _mm256_mul_pd(ra[0], rb[2])),
                _mm256_sub_pd(_mm256_mul_pd(ra[0], rb[1]),
                              _mm256_mul_pd(ra[1], rb[0])),
            };

            const d4 x[3] = {matRow<kRgb2Dkl>(0, v[0], v[1], v[2]),
                             matRow<kRgb2Dkl>(1, v[0], v[1], v[2]),
                             matRow<kRgb2Dkl>(2, v[0], v[1], v[2])};

            // denom = sqrt(((x0^2*s0 + x1^2*s1) + x2^2*s2)).
            const d4 denom = _mm256_sqrt_pd(_mm256_add_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(_mm256_mul_pd(x[0], x[0]), s_inv2[0]),
                    _mm256_mul_pd(_mm256_mul_pd(x[1], x[1]),
                                  s_inv2[1])),
                _mm256_mul_pd(_mm256_mul_pd(x[2], x[2]), s_inv2[2])));

            // Degenerate check, masked to the valid lanes of this
            // block (padding lanes hold benign but meaningless data).
            int zero_mask = _mm256_movemask_pd(
                _mm256_cmp_pd(denom, zero, _CMP_EQ_OQ));
            if (i + kLaneWidth > soa.n)
                zero_mask &= (1 << (soa.n - i)) - 1;
            if (zero_mask != 0)
                throw std::domain_error(
                    "extremaAlongAxis: degenerate ellipsoid");

            const d4 inv = _mm256_div_pd(one, denom);
            const d4 xs[3] = {_mm256_mul_pd(x[0], inv),
                              _mm256_mul_pd(x[1], inv),
                              _mm256_mul_pd(x[2], inv)};
            const d4 step[3] = {matRow<kDkl2Rgb>(0, xs[0], xs[1], xs[2]),
                                matRow<kDkl2Rgb>(1, xs[0], xs[1], xs[2]),
                                matRow<kDkl2Rgb>(2, xs[0], xs[1],
                                                 xs[2])};

            d4 pp[3];
            d4 pm[3];
            for (int k = 0; k < 3; ++k) {
                pp[k] = _mm256_add_pd(rc[k], step[k]);
                pm[k] = _mm256_sub_pd(rc[k], step[k]);
            }
            // if (p_plus[axis] >= p_minus[axis]) high = p_plus; ...
            const d4 up =
                _mm256_cmp_pd(pp[p.axis], pm[p.axis], _CMP_GE_OQ);
            double *hi[3] = {soa.lane(p.hx) + i, soa.lane(p.hy) + i,
                             soa.lane(p.hz) + i};
            double *lo[3] = {soa.lane(p.lx) + i, soa.lane(p.ly) + i,
                             soa.lane(p.lz) + i};
            for (int k = 0; k < 3; ++k) {
                store(hi[k], sel(pm[k], pp[k], up));
                store(lo[k], sel(pp[k], pm[k], up));
            }
        }
    }
}

int
moveAxisAvx2(TileSoA &soa, int axis, bool collapse, double target_c2,
             double lh, double hl)
{
    const bool red = axis == 0;
    const double *pl[3] = {soa.lane(kPx), soa.lane(kPy), soa.lane(kPz)};
    const double *hx = soa.lane(red ? kRedHighX : kBlueHighX);
    const double *hy = soa.lane(red ? kRedHighY : kBlueHighY);
    const double *hz = soa.lane(red ? kRedHighZ : kBlueHighZ);
    const double *lx = soa.lane(red ? kRedLowX : kBlueLowX);
    const double *ly = soa.lane(red ? kRedLowY : kBlueLowY);
    const double *lz = soa.lane(red ? kRedLowZ : kBlueLowZ);
    double *ox = soa.lane(red ? kOutRedX : kOutBlueX);
    double *oy = soa.lane(red ? kOutRedY : kOutBlueY);
    double *oz = soa.lane(red ? kOutRedZ : kOutBlueZ);

    const d4 zero = bc(0.0);
    const d4 one = bc(1.0);
    const d4 vlh = bc(lh);
    const d4 vhl = bc(hl);
    const d4 vtarget = bc(target_c2);

    int gamut_clamped = 0;
    for (std::size_t i = 0; i < soa.stride; i += kLaneWidth) {
        const d4 p[3] = {load(pl[0] + i), load(pl[1] + i),
                         load(pl[2] + i)};
        const d4 v[3] = {_mm256_sub_pd(load(hx + i), load(lx + i)),
                         _mm256_sub_pd(load(hy + i), load(ly + i)),
                         _mm256_sub_pd(load(hz + i), load(lz + i))};
        const d4 pax = p[axis];
        const d4 vax = v[axis];

        const d4 target =
            collapse ? vtarget : clampStd(pax, vlh, vhl);

        const d4 degenerate = _mm256_cmp_pd(vax, zero, _CMP_EQ_OQ);
        const d4 t = _mm256_div_pd(_mm256_sub_pd(target, pax), vax);

        // Division-free fast path: strictly in-gamut candidate.
        d4 cand[3];
        d4 in_gamut = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        for (int k = 0; k < 3; ++k) {
            cand[k] = _mm256_add_pd(p[k], _mm256_mul_pd(v[k], t));
            in_gamut = _mm256_and_pd(
                in_gamut, _mm256_cmp_pd(cand[k], zero, _CMP_GT_OQ));
            in_gamut = _mm256_and_pd(
                in_gamut, _mm256_cmp_pd(cand[k], one, _CMP_LT_OQ));
        }

        // Division-free fast path for the whole block: when every
        // valid lane is in-gamut or degenerate, the gamut clamp below
        // (6 divisions) is dead — exactly the per-pixel short-circuit
        // of the scalar code, taken 4 lanes at a time.
        const unsigned live =
            i + kLaneWidth > soa.n
                ? (1u << (soa.n - i)) - 1u
                : (1u << kLaneWidth) - 1u;
        const unsigned skip = static_cast<unsigned>(_mm256_movemask_pd(
            _mm256_or_pd(in_gamut, degenerate)));
        if ((skip & live) == live) {
            double *out_fast[3] = {ox + i, oy + i, oz + i};
            for (int k = 0; k < 3; ++k)
                store(out_fast[k], sel(cand[k], p[k], degenerate));
            continue;
        }

        // clampToGamut on every lane (blended away where unused).
        d4 tg = t;
        for (int k = 0; k < 3; ++k) {
            const d4 d = v[k];
            const d4 active = _mm256_cmp_pd(d, zero, _CMP_NEQ_OQ);
            const d4 t0 = _mm256_div_pd(_mm256_sub_pd(zero, p[k]), d);
            const d4 t1 = _mm256_div_pd(_mm256_sub_pd(one, p[k]), d);
            const d4 t_min = minStd(t0, t1);
            const d4 t_max = maxStd(t0, t1);
            tg = sel(tg, clampStd(tg, t_min, t_max), active);
        }

        // Count (valid, non-degenerate, out-of-gamut) lanes whose t
        // moved, exactly the scalar ++gamutClampedPixels condition.
        // NEQ_UQ, not NEQ_OQ: C++ `t_gamut != t` is true for NaN
        // operands (unordered compares are not-equal), and a NaN input
        // pixel must count identically at every dispatch level.
        const d4 moved = _mm256_cmp_pd(tg, t, _CMP_NEQ_UQ);
        int count_mask = _mm256_movemask_pd(_mm256_andnot_pd(
            degenerate,
            _mm256_andnot_pd(in_gamut, moved)));
        if (i + kLaneWidth > soa.n)
            count_mask &= (1 << (soa.n - i)) - 1;
        gamut_clamped += __builtin_popcount(
            static_cast<unsigned>(count_mask));

        double *out[3] = {ox + i, oy + i, oz + i};
        for (int k = 0; k < 3; ++k) {
            const d4 adj =
                _mm256_add_pd(p[k], _mm256_mul_pd(v[k], tg));
            d4 res = sel(adj, cand[k], in_gamut);
            res = sel(res, p[k], degenerate);
            store(out[k], res);
        }
    }
    return gamut_clamped;
}

/** Smallest of the four lanes (none NaN). */
inline double
hmin(d4 v)
{
    const __m128d m = _mm_min_pd(_mm256_castpd256_pd128(v),
                                 _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
}

/** Largest of the four lanes (none NaN). */
inline double
hmax(d4 v)
{
    const __m128d m = _mm_max_pd(_mm256_castpd256_pd128(v),
                                 _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
}

std::size_t
tileCostAvx2(TileSoA &soa, int axis)
{
    std::size_t bits = 3 * (kBdWidthFieldBits + kBdBaseBits);
    if (soa.n == 0)
        return bits;
    CandidateCodes &out = soa.codesOf(axis);
    // Valid lanes of the last block; its padded lanes take a copy of
    // the block's first (always valid) value, which moves no min, max
    // or NaN flag.
    const std::size_t tail = soa.n % kLaneWidth;
    const d4 tail_valid = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(tail)),
        _mm256_setr_epi64x(0, 1, 2, 3)));
    for (int ch = 0; ch < 3; ++ch) {
        // The code range is the codes of the value range (see the
        // tileCost contract). minpd/maxpd return their second operand
        // when either is NaN, so NaN lanes leave the running min/max
        // untouched and only raise the flag.
        const double *v = soa.candidate(axis, ch);
        d4 lo = bc(std::numeric_limits<double>::infinity());
        d4 hi = bc(-std::numeric_limits<double>::infinity());
        d4 nan = _mm256_setzero_pd();
        for (std::size_t i = 0; i < soa.n; i += kLaneWidth) {
            d4 x = load(v + i);
            if (i + kLaneWidth > soa.n)
                x = sel(_mm256_broadcast_sd(v + i), x, tail_valid);
            lo = _mm256_min_pd(x, lo);
            hi = _mm256_max_pd(x, hi);
            nan = _mm256_or_pd(nan, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
        }
        out.lo[ch] = _mm256_movemask_pd(nan) != 0
                         ? 0
                         : linearToSrgb8(hmin(lo));
        out.hi[ch] = linearToSrgb8(hmax(hi));
        bits += soa.n * bdDeltaWidth(out.lo[ch], out.hi[ch]);
    }
    return bits;
}

} // namespace

const TileKernels &
avx2TileKernels()
{
    static const TileKernels k{ellipsoidsAvx2, extremaBothAvx2,
                               moveAxisAvx2, tileCostAvx2};
    return k;
}

} // namespace pce::simd
