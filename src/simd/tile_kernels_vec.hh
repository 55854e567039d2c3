/**
 * @file
 * The vector kernels of the tile adjust datapath, written once over a
 * vector-traits type and instantiated at every vector width.
 *
 * Only the vector-ISA TUs include this header: tile_kernels_avx2.cc
 * (4 lanes, -mavx2) and tile_kernels_avx512.cc (8 lanes, -mavx512f
 * -mavx512dq). Each defines its traits type in an anonymous namespace
 * and returns vectorTileKernels<Traits>(). Every function here is a
 * template over the traits, so every instantiation has internal linkage:
 * no out-of-line copy compiled for one ISA can be picked by the linker
 * for code built for another (scripts/check.sh asserts with nm that both
 * objects define no weak functions).
 *
 * A traits type V provides, for a vector D of V::kWidth doubles and a
 * lane mask M:
 *
 *  - load / store (unaligned), bc (broadcast);
 *  - add, sub, mul, div, sqrt (IEEE-exact per lane);
 *  - lt, gt, ge, eq, ne (ordered compares), neOrNan (unordered
 *    not-equal: true when either lane is NaN), isNan;
 *  - sel(a, b, m) = m ? b : a; incIf(a, m) = m ? a + 1.0 : a; mand, mor
 *    and mandnot(a, b) = ~a & b on masks; bits(m), bit k set when lane
 *    k is, and its inverse fromBits(b);
 *  - absv (clear the sign bit); vmin / vmax, the minpd / maxpd
 *    instructions (NaN in either operand returns the second);
 *  - hmin / hmax: horizontal min / max of NaN-free lanes;
 *  - storeRgb12(out, v, g): v holds r + 256 * (g + 256 * b) per lane
 *    (each a code 0..255); writes the 12 bytes r, g, b of lanes 4g to
 *    4g + 3 to out.
 *
 * Bit-identity with the scalar reference (tile_kernels_scalar.cc) is a
 * hard contract, enforced by tests/simd with exact equality at every
 * level. The rules that make it hold:
 *
 *  - Every arithmetic step mirrors the scalar code's exact operation
 *    sequence and association. Vector add/sub/mul/div/sqrt are
 *    IEEE-754-exact per element, so identical sequences give identical
 *    bits. The vector TUs are compiled with -ffp-contract=off (and
 *    intrinsics are never contracted anyway), so no FMA can reassociate
 *    a rounding step the scalar build performed in two.
 *  - min/max/clamp are NOT the minpd/maxpd instructions (whose NaN and
 *    +/-0 semantics differ from std::min/std::max): they are
 *    compare+blend sequences mirroring the exact ternaries of the
 *    scalar code, including NaN fall-through. (The move kernel's value
 *    range uses vmin/vmax: it only picks a code, which +/-0 cannot
 *    change, and NaN lanes are flagged separately. Its HL/LH reduction
 *    folds each lane with the std:: forms and takes the horizontal
 *    min/max, then restores the sign of a zero from the first zero
 *    lane, which is the only bit the lane order can change.)
 *  - Branches become masks: each lane computes every path and blends in
 *    the scalar code's priority order (degenerate overrides in-gamut
 *    overrides the gamut-clamped path).
 *
 * Each level steps by its own width up to n rounded up to that width
 * (TileSoA pads the stride to the widest level, kLaneWidth), so every
 * block holds at least one valid lane. Padding lanes compute on benign
 * data (TileSoA zero-fills input padding); anything *observable* — the
 * degenerate-ellipsoid check, the HL/LH planes, the gamut-clamp count,
 * the candidate value range and the quantized codes — is masked to the
 * valid n lanes.
 */

#ifndef PCE_SIMD_TILE_KERNELS_VEC_HH
#define PCE_SIMD_TILE_KERNELS_VEC_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "color/dkl.hh"
#include "perception/discrimination.hh"
#include "simd/tile_kernels.hh"

namespace pce::simd {

namespace vec {

/** End of the blocks of V::kWidth lanes that hold a valid lane. */
template <class V>
std::size_t
blockEnd(std::size_t n)
{
    return (n + V::kWidth - 1) / V::kWidth * V::kWidth;
}

/** Bits of the valid lanes of the block starting at lane @p i. */
template <class V>
unsigned
liveBits(std::size_t n, std::size_t i)
{
    const std::size_t valid = i < n ? n - i : 0;
    return valid >= V::kWidth ? (1u << V::kWidth) - 1u
                              : (1u << valid) - 1u;
}

/** Mirror of std::min(a, b) = (b < a) ? b : a. */
template <class V>
typename V::D
minStd(typename V::D a, typename V::D b)
{
    return V::sel(a, b, V::lt(b, a));
}

/** Mirror of std::max(a, b) = (a < b) ? b : a. */
template <class V>
typename V::D
maxStd(typename V::D a, typename V::D b)
{
    return V::sel(a, b, V::lt(a, b));
}

/** Mirror of v < lo ? lo : (v > hi ? hi : v), NaN passing through. */
template <class V>
typename V::D
clampStd(typename V::D v, typename V::D lo, typename V::D hi)
{
    const typename V::D r = V::sel(v, hi, V::gt(v, hi));
    return V::sel(r, lo, V::lt(v, lo));
}

/**
 * Row r of a 3x3 matvec: ((m_r0 * x + m_r1 * y) + m_r2 * z), the exact
 * association of Vec3::dot.
 */
template <class V, const Mat3 &M>
typename V::D
matRow(int r, typename V::D x, typename V::D y, typename V::D z)
{
    return V::add(V::add(V::mul(V::bc(M(r, 0)), x),
                         V::mul(V::bc(M(r, 1)), y)),
                  V::mul(V::bc(M(r, 2)), z));
}

template <class V>
void
ellipsoids(TileSoA &soa, const AnalyticModelParams &params)
{
    using D = typename V::D;
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

    const D zero = V::bc(0.0);
    const D one = V::bc(1.0);
    const D ecc_gain = V::bc(params.eccGain);
    const D weber_gain = V::bc(params.weberGain);
    const D lum_bias = V::bc(params.lumBias);
    const D lum_gain = V::bc(params.lumGain);
    const D global_scale = V::bc(params.globalScale);
    const D base[3] = {V::bc(params.base.x), V::bc(params.base.y),
                       V::bc(params.base.z)};
    const D inv_range[3] = {V::bc(kDklInvAxisRange[0]),
                            V::bc(kDklInvAxisRange[1]),
                            V::bc(kDklInvAxisRange[2])};

    const std::size_t end = blockEnd<V>(soa.n);
    for (std::size_t i = 0; i < end; i += V::kWidth) {
        // Vec3::clamped(0, 1) on the raw pixel.
        const D r = clampStd<V>(V::load(px + i), zero, one);
        const D g = clampStd<V>(V::load(py + i), zero, one);
        const D b = clampStd<V>(V::load(pz + i), zero, one);

        // rgbToDkl: the DKL center of the (in-gamut) pixel.
        const D dkl[3] = {matRow<V, kRgb2Dkl>(0, r, g, b),
                          matRow<V, kRgb2Dkl>(1, r, g, b),
                          matRow<V, kRgb2Dkl>(2, r, g, b)};

        // semiAxesWithDkl: std::max(0.0, ecc) = (0 < ecc) ? ecc : 0.
        const D e = V::load(ec + i);
        const D ecc = V::sel(zero, e, V::lt(zero, e));
        const D ecc_scale = V::add(one, V::mul(ecc_gain, ecc));
        const D lum = V::add(V::add(V::mul(V::bc(0.2126), r),
                                    V::mul(V::bc(0.7152), g)),
                             V::mul(V::bc(0.0722), b));
        const D lum_scale = V::add(lum_bias, V::mul(lum_gain, lum));
        const D common =
            V::mul(V::mul(lum_scale, ecc_scale), global_scale);

        double *out_c[3] = {cx + i, cy + i, cz + i};
        double *out_a[3] = {ax + i, ay + i, az + i};
        for (int k = 0; k < 3; ++k) {
            const D chroma = V::mul(V::absv(dkl[k]), inv_range[k]);
            const D weber = V::add(one, V::mul(weber_gain, chroma));
            V::store(out_a[k], V::mul(V::mul(base[k], weber), common));
            V::store(out_c[k], dkl[k]);
        }
    }
}

template <class V>
void
extremaBoth(TileSoA &soa)
{
    using D = typename V::D;
    const double *cx = soa.lane(kCx);
    const double *cy = soa.lane(kCy);
    const double *cz = soa.lane(kCz);
    const double *axp = soa.lane(kAx);
    const double *ayp = soa.lane(kAy);
    const double *azp = soa.lane(kAz);

    const D one = V::bc(1.0);
    const D zero = V::bc(0.0);

    const std::size_t end = blockEnd<V>(soa.n);
    for (std::size_t i = 0; i < end; i += V::kWidth) {
        // buildExtremaFrame: sInv2 = 1 / s_k^2.
        const D sa[3] = {V::load(axp + i), V::load(ayp + i),
                         V::load(azp + i)};
        D s_inv2[3];
        for (int k = 0; k < 3; ++k)
            s_inv2[k] = V::div(one, V::mul(sa[k], sa[k]));

        // q3 = M^T S M by its 6 unique entries, each
        // ((m0a*s0)*m0b + (m1a*s1)*m1b) + (m2a*s2)*m2b.
        D q[3][3];
        for (int a = 0; a < 3; ++a) {
            for (int b = a; b < 3; ++b) {
                const D t0 = V::mul(
                    V::mul(V::bc(kRgb2Dkl(0, a)), s_inv2[0]),
                    V::bc(kRgb2Dkl(0, b)));
                const D t1 = V::mul(
                    V::mul(V::bc(kRgb2Dkl(1, a)), s_inv2[1]),
                    V::bc(kRgb2Dkl(1, b)));
                const D t2 = V::mul(
                    V::mul(V::bc(kRgb2Dkl(2, a)), s_inv2[2]),
                    V::bc(kRgb2Dkl(2, b)));
                q[a][b] = V::add(V::add(t0, t1), t2);
                q[b][a] = q[a][b];
            }
        }

        // rgbCenter = M^-1 * centerDkl.
        const D c[3] = {V::load(cx + i), V::load(cy + i),
                        V::load(cz + i)};
        const D rc[3] = {matRow<V, kDkl2Rgb>(0, c[0], c[1], c[2]),
                         matRow<V, kDkl2Rgb>(1, c[0], c[1], c[2]),
                         matRow<V, kDkl2Rgb>(2, c[0], c[1], c[2])};

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
            const D *ra = q[p.a1];
            const D *rb = q[p.a2];
            const D v[3] = {
                V::sub(V::mul(ra[1], rb[2]), V::mul(ra[2], rb[1])),
                V::sub(V::mul(ra[2], rb[0]), V::mul(ra[0], rb[2])),
                V::sub(V::mul(ra[0], rb[1]), V::mul(ra[1], rb[0])),
            };

            const D x[3] = {matRow<V, kRgb2Dkl>(0, v[0], v[1], v[2]),
                            matRow<V, kRgb2Dkl>(1, v[0], v[1], v[2]),
                            matRow<V, kRgb2Dkl>(2, v[0], v[1], v[2])};

            // denom = sqrt(((x0^2*s0 + x1^2*s1) + x2^2*s2)).
            const D denom = V::sqrt(V::add(
                V::add(V::mul(V::mul(x[0], x[0]), s_inv2[0]),
                       V::mul(V::mul(x[1], x[1]), s_inv2[1])),
                V::mul(V::mul(x[2], x[2]), s_inv2[2])));

            // Degenerate check, masked to the valid lanes of this
            // block (padding lanes hold benign but meaningless data).
            if ((V::bits(V::eq(denom, zero)) & liveBits<V>(soa.n, i)) !=
                0)
                throw std::domain_error(
                    "extremaAlongAxis: degenerate ellipsoid");

            const D inv = V::div(one, denom);
            const D xs[3] = {V::mul(x[0], inv), V::mul(x[1], inv),
                             V::mul(x[2], inv)};
            const D step[3] = {
                matRow<V, kDkl2Rgb>(0, xs[0], xs[1], xs[2]),
                matRow<V, kDkl2Rgb>(1, xs[0], xs[1], xs[2]),
                matRow<V, kDkl2Rgb>(2, xs[0], xs[1], xs[2])};

            D pp[3];
            D pm[3];
            for (int k = 0; k < 3; ++k) {
                pp[k] = V::add(rc[k], step[k]);
                pm[k] = V::sub(rc[k], step[k]);
            }
            // if (p_plus[axis] >= p_minus[axis]) high = p_plus; ...
            const typename V::M up = V::ge(pp[p.axis], pm[p.axis]);
            double *hi[3] = {soa.lane(p.hx) + i, soa.lane(p.hy) + i,
                             soa.lane(p.hz) + i};
            double *lo[3] = {soa.lane(p.lx) + i, soa.lane(p.ly) + i,
                             soa.lane(p.lz) + i};
            for (int k = 0; k < 3; ++k) {
                V::store(hi[k], V::sel(pm[k], pp[k], up));
                V::store(lo[k], V::sel(pp[k], pm[k], up));
            }
        }
    }
}

/**
 * Fig. 7 step 2 over the n >= 1 valid lanes: @p hl the sequential
 * std::max fold of @p low from -1e300 and @p lh the std::min fold of
 * @p high from 1e300, bit for bit. Each vector lane folds its own
 * subsequence with the std:: forms, which skip NaN (it never passes
 * the compare); a ragged block's padding lanes are blended to NaN.
 */
template <class V>
void
reducePlanes(const double *low, const double *high, std::size_t n,
             double &hl, double &lh)
{
    using D = typename V::D;
    const D pad = V::bc(std::numeric_limits<double>::quiet_NaN());
    D vhl = V::bc(-1e300);
    D vlh = V::bc(1e300);
    const std::size_t end = blockEnd<V>(n);
    for (std::size_t i = 0; i < end; i += V::kWidth) {
        D l = V::load(low + i);
        D h = V::load(high + i);
        const unsigned live = liveBits<V>(n, i);
        if (live != (1u << V::kWidth) - 1u) {
            l = V::sel(pad, l, V::fromBits(live));
            h = V::sel(pad, h, V::fromBits(live));
        }
        vhl = maxStd<V>(vhl, l);
        vlh = minStd<V>(vlh, h);
    }
    // Across lanes the order can only decide the sign of a zero: the
    // fold keeps the first of equal values, so a zero result takes the
    // sign of the first zero lane.
    auto firstZero = [n](const double *lane) {
        for (std::size_t i = 0; i < n; ++i)
            if (lane[i] == 0.0)
                return lane[i];
        return 0.0;
    };
    hl = V::hmax(vhl);
    lh = V::hmin(vlh);
    if (hl == 0.0)
        hl = firstZero(low);
    if (lh == 0.0)
        lh = firstZero(high);
}

template <class V, int Axis>
AxisMove
moveAxis(TileSoA &soa)
{
    using D = typename V::D;
    using M = typename V::M;
    constexpr bool red = Axis == 0;
    const double *pl[3] = {soa.lane(kPx), soa.lane(kPy), soa.lane(kPz)};
    const double *hx = soa.lane(red ? kRedHighX : kBlueHighX);
    const double *hy = soa.lane(red ? kRedHighY : kBlueHighY);
    const double *hz = soa.lane(red ? kRedHighZ : kBlueHighZ);
    const double *lx = soa.lane(red ? kRedLowX : kBlueLowX);
    const double *ly = soa.lane(red ? kRedLowY : kBlueLowY);
    const double *lz = soa.lane(red ? kRedLowZ : kBlueLowZ);
    double *out[3] = {soa.lane(red ? kOutRedX : kOutBlueX),
                      soa.lane(red ? kOutRedY : kOutBlueY),
                      soa.lane(red ? kOutRedZ : kOutBlueZ)};

    AxisMove move;
    reducePlanes<V>(red ? lx : lz, red ? hx : hz, soa.n, move.hlPlane,
                    move.lhPlane);
    const double hl = move.hlPlane;
    const double lh = move.lhPlane;
    move.collapse = !(hl > lh);
    const bool collapse = move.collapse;

    const D zero = V::bc(0.0);
    const D one = V::bc(1.0);
    const D vlh = V::bc(lh);
    const D vhl = V::bc(hl);
    const D vtarget = V::bc(0.5 * (hl + lh));

    // The candidate's value range, folded where each block is stored.
    // vmin/vmax return their second operand when either is NaN, so a
    // NaN lane leaves the running min/max untouched and only raises
    // its channel's flag. A ragged block's padding lanes are blended
    // to NaN and masked out of the flag, so they reach neither.
    CandidateRange &range = move.range;
    D lo[3];
    D hi[3];
    unsigned nan[3] = {};
    for (int k = 0; k < 3; ++k) {
        lo[k] = V::bc(range.lo[k]);
        hi[k] = V::bc(range.hi[k]);
    }
    const D pad = V::bc(std::numeric_limits<double>::quiet_NaN());

    const std::size_t end = blockEnd<V>(soa.n);
    for (std::size_t i = 0; i < end; i += V::kWidth) {
        const D p[3] = {V::load(pl[0] + i), V::load(pl[1] + i),
                        V::load(pl[2] + i)};
        const D v[3] = {V::sub(V::load(hx + i), V::load(lx + i)),
                        V::sub(V::load(hy + i), V::load(ly + i)),
                        V::sub(V::load(hz + i), V::load(lz + i))};
        const D pax = p[Axis];
        const D vax = v[Axis];

        const D target = collapse ? vtarget : clampStd<V>(pax, vlh, vhl);

        const M degenerate = V::eq(vax, zero);
        const D t = V::div(V::sub(target, pax), vax);

        // Division-free fast path: strictly in-gamut candidate.
        D cand[3];
        M in_unit[3];
#pragma GCC unroll 3
        for (int k = 0; k < 3; ++k) {
            cand[k] = V::add(p[k], V::mul(v[k], t));
            in_unit[k] = V::mand(V::gt(cand[k], zero), V::lt(cand[k], one));
        }
        const M in_gamut =
            V::mand(V::mand(in_unit[0], in_unit[1]), in_unit[2]);

        // When every valid lane of the block is in-gamut or
        // degenerate, the gamut clamp (6 divisions) is dead — exactly
        // the per-pixel short-circuit of the scalar code, taken a
        // block at a time.
        D res[3];
#pragma GCC unroll 3
        for (int k = 0; k < 3; ++k)
            res[k] = V::sel(cand[k], p[k], degenerate);
        const unsigned live = liveBits<V>(soa.n, i);
        if ((V::bits(V::mor(in_gamut, degenerate)) & live) != live) {
            // clampToGamut on every lane (blended away where unused).
            D tg = t;
#pragma GCC unroll 3
            for (int k = 0; k < 3; ++k) {
                const D d = v[k];
                const M active = V::ne(d, zero);
                const D t0 = V::div(V::sub(zero, p[k]), d);
                const D t1 = V::div(V::sub(one, p[k]), d);
                const D t_min = minStd<V>(t0, t1);
                const D t_max = maxStd<V>(t0, t1);
                tg = V::sel(tg, clampStd<V>(tg, t_min, t_max), active);
            }

            // Count (valid, non-degenerate, out-of-gamut) lanes whose
            // t moved, exactly the scalar ++gamutClampedPixels
            // condition. neOrNan, not ne: C++ `t_gamut != t` is true
            // for NaN operands (unordered compares are not-equal), and
            // a NaN input pixel must count identically at every
            // dispatch level.
            const M moved = V::neOrNan(tg, t);
            const unsigned counted = V::bits(
                V::mandnot(degenerate, V::mandnot(in_gamut, moved)));
            range.gamutClamped += __builtin_popcount(counted & live);

#pragma GCC unroll 3
            for (int k = 0; k < 3; ++k) {
                const D adj = V::add(p[k], V::mul(v[k], tg));
                res[k] = V::sel(V::sel(adj, cand[k], in_gamut), p[k],
                                degenerate);
            }
        }

        const bool ragged = live != (1u << V::kWidth) - 1u;
#pragma GCC unroll 3
        for (int k = 0; k < 3; ++k) {
            V::store(out[k] + i, res[k]);
            const D x =
                ragged ? V::sel(pad, res[k], V::fromBits(live)) : res[k];
            lo[k] = V::vmin(x, lo[k]);
            hi[k] = V::vmax(x, hi[k]);
            nan[k] |= V::bits(V::isNan(res[k])) & live;
        }
    }
    for (int k = 0; k < 3; ++k) {
        range.lo[k] = V::hmin(lo[k]);
        range.hi[k] = V::hmax(hi[k]);
        range.nan[k] = nan[k] != 0;
    }
    return move;
}

/**
 * Widest code range stage 4 counts thresholds across: one window of as
 * many thresholds above the channel's lo code. A wider channel is
 * looked up in the table.
 */
inline constexpr int kCodeWindow = 4;

template <class V>
void
quantize(const TileSoA &soa, int axis, const Srgb8Table &table,
         std::size_t width, uint8_t *dst, std::size_t row_bytes)
{
    using D = typename V::D;
    const CandidateCodes &codes = soa.codesOf(axis);
    // A narrow channel's code is lo plus the number of window
    // thresholds a lane reaches; a NaN reaches none, and its channel's
    // lo is 0. No valid lane reaches a threshold above hi except the
    // sentinel codeMin[256] (at hi = 255), so min(., hi) keeps the
    // count exact where the window overhangs the range.
    const double *x[3];
    D lo[3];
    D hi[3];
    D window[3][kCodeWindow];
    bool wide[3];
#pragma GCC unroll 3
    for (int k = 0; k < 3; ++k) {
        x[k] = soa.candidate(axis, k);
        lo[k] = V::bc(codes.lo[k]);
        hi[k] = V::bc(codes.hi[k]);
        wide[k] = codes.hi[k] - codes.lo[k] > kCodeWindow;
#pragma GCC unroll 4
        for (int j = 0; j < kCodeWindow; ++j)
            window[k][j] =
                V::bc(table.codeMin[std::min(codes.lo[k] + 1 + j, 256)]);
    }
    const D byte = V::bc(256.0);
    std::size_t col = 0;
    for (std::size_t i = 0; i < soa.n; i += V::kWidth) {
        D c[3];
#pragma GCC unroll 3
        for (int k = 0; k < 3; ++k) {
            if (wide[k]) {
                double looked_up[V::kWidth];
                srgbCodeLanes(table, x[k] + i, V::kWidth, looked_up);
                c[k] = V::load(looked_up);
                continue;
            }
            const D v = V::load(x[k] + i);
            D code = lo[k];
#pragma GCC unroll 4
            for (int j = 0; j < kCodeWindow; ++j)
                code = V::incIf(code, V::ge(v, window[k][j]));
            c[k] = V::vmin(code, hi[k]);
        }
        // r + 256 * (g + 256 * b) is exact in a double.
        const D rgb =
            V::add(c[0], V::mul(byte, V::add(c[1], V::mul(byte, c[2]))));
        // Each group of 4 valid pixels inside one row is stored as its
        // 12 bytes; any other group goes pixel by pixel.
        for (std::size_t g = 0; g < V::kWidth / 4 && i + 4 * g < soa.n;
             ++g) {
            if (col + 4 <= width && i + 4 * g + 4 <= soa.n) {
                V::storeRgb12(dst + 3 * col, rgb, g);
                col += 4;
            } else {
                uint8_t group[12];
                V::storeRgb12(group, rgb, g);
                for (std::size_t p = 0; p < 4 && i + 4 * g + p < soa.n;
                     ++p) {
                    std::memcpy(dst + 3 * col, group + 3 * p, 3);
                    if (++col == width) {
                        col = 0;
                        dst += row_bytes;
                    }
                }
                continue;
            }
            if (col == width) {
                col = 0;
                dst += row_bytes;
            }
        }
    }
}

} // namespace vec

/** The kernel table of traits type @p V. */
template <class V>
const TileKernels &
vectorTileKernels()
{
    static const TileKernels k{
        vec::ellipsoids<V>,
        vec::extremaBoth<V>,
        {vec::moveAxis<V, 0>, vec::moveAxis<V, 2>},
        vec::quantize<V>};
    return k;
}

} // namespace pce::simd

#endif // PCE_SIMD_TILE_KERNELS_VEC_HH
