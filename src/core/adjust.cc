#include "core/adjust.hh"

#include <algorithm>
#include <stdexcept>
#include <typeinfo>

#include "bd/bd_codec.hh"
#include "color/srgb.hh"

namespace pce {

namespace {

/** Gather AoS pixels/eccentricities into the input lanes of @p soa. */
void
fillLanes(simd::TileSoA &soa, const std::vector<Vec3> &pixels,
          const std::vector<double> &ecc_deg)
{
    soa.resize(pixels.size());
    double *px = soa.lane(simd::kPx);
    double *py = soa.lane(simd::kPy);
    double *pz = soa.lane(simd::kPz);
    double *ecc = soa.lane(simd::kEcc);
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        px[i] = pixels[i].x;
        py[i] = pixels[i].y;
        pz[i] = pixels[i].z;
        ecc[i] = ecc_deg[i];
    }
}

/** The adjusted candidate of @p axis, interleaved. */
std::vector<Vec3>
candidateOf(const simd::TileSoA &soa, int axis)
{
    const bool red = axis == 0;
    const double *ox = soa.lane(red ? simd::kOutRedX : simd::kOutBlueX);
    const double *oy = soa.lane(red ? simd::kOutRedY : simd::kOutBlueY);
    const double *oz = soa.lane(red ? simd::kOutRedZ : simd::kOutBlueZ);
    std::vector<Vec3> out(soa.n);
    for (std::size_t i = 0; i < soa.n; ++i)
        out[i] = Vec3(ox[i], oy[i], oz[i]);
    return out;
}

} // namespace

std::size_t
bdTileBitsFromRange(const simd::CandidateRange &range, std::size_t n,
                    simd::CandidateCodes &codes)
{
    std::size_t bits = 3 * (kBdWidthFieldBits + kBdBaseBits);
    if (n == 0)
        return bits;
    for (int ch = 0; ch < 3; ++ch) {
        codes.lo[ch] = range.nan[ch] ? 0 : linearToSrgb8(range.lo[ch]);
        codes.hi[ch] = linearToSrgb8(range.hi[ch]);
        bits += n * bdDeltaWidth(codes.lo[ch], codes.hi[ch]);
    }
    return bits;
}

std::size_t
bdTileBits(const std::vector<Vec3> &pixels_linear)
{
    std::vector<uint8_t> codes(pixels_linear.size() * 3);
    linearToSrgb8(pixels_linear.data(), pixels_linear.size(),
                  codes.data());
    return bdTileBitsFromCodes(codes.data(), pixels_linear.size());
}

TileAdjuster::TileAdjuster(const DiscriminationModel &model,
                           ExtremaFn extrema, simd::SimdLevel level)
    : model_(model), extrema_(std::move(extrema)),
      kernels_(&simd::tileKernels(level)),
      simdLevel_(simd::effectiveSimdLevel(level))
{
    // The stage-1 kernel hardcodes the analytic model's datapath; use
    // it only when the model *is* exactly that type (a subclass could
    // override the semi-axis evaluation).
    if (typeid(model) == typeid(AnalyticDiscriminationModel)) {
        analyticModel_ = true;
        analyticParams_ =
            static_cast<const AnalyticDiscriminationModel &>(model)
                .params();
    }
}

void
TileAdjuster::computeExtrema(simd::TileSoA &soa) const
{
    if (analyticModel_)
        kernels_->ellipsoids(soa, analyticParams_);
    else
        simd::ellipsoidsFromModel(soa, model_);
    if (extrema_)
        simd::extremaFromBackend(soa, extrema_);
    else
        kernels_->extremaBoth(soa);
}

TileAdjuster::AxisOutcome
TileAdjuster::moveAxis(simd::TileSoA &soa, int axis) const
{
    AxisOutcome out;
    if (soa.n == 0)
        return out;

    // Step 2 (Fig. 7): HL (highest of the lows) and LH (lowest of the
    // highs); the CAU computes these with two reduction trees (Sec. 4.2).
    const double *low =
        soa.lane(axis == 0 ? simd::kRedLowX : simd::kBlueLowZ);
    const double *high =
        soa.lane(axis == 0 ? simd::kRedHighX : simd::kBlueHighZ);
    double hl = -1e300;
    double lh = 1e300;
    for (std::size_t i = 0; i < soa.n; ++i) {
        hl = std::max(hl, low[i]);
        lh = std::min(lh, high[i]);
    }
    out.hlPlane = hl;
    out.lhPlane = lh;
    out.adjustCase = hl > lh ? AdjustCase::C1 : AdjustCase::C2;

    // Step 3: move colors along the extrema vectors — collapse onto the
    // average plane (Fig. 6b) or clamp into [LH, HL] (Fig. 6a).
    out.range = kernels_->moveAxis(soa, axis,
                                   out.adjustCase == AdjustCase::C2,
                                   0.5 * (hl + lh), lh, hl);
    return out;
}

TileOutcome
TileAdjuster::adjustTile(simd::TileSoA &soa) const
{
    computeExtrema(soa);
    const AxisOutcome red = moveAxis(soa, 0);
    const AxisOutcome blue = moveAxis(soa, 2);

    TileOutcome out;
    out.caseRed = red.adjustCase;
    out.caseBlue = blue.adjustCase;
    out.bitsRed = bdTileBitsFromRange(red.range, soa.n, soa.codesOf(0));
    out.bitsBlue = bdTileBitsFromRange(blue.range, soa.n, soa.codesOf(2));

    const bool pick_red = out.bitsRed < out.bitsBlue;
    const AxisOutcome &chosen = pick_red ? red : blue;
    out.chosenAxis = pick_red ? 0 : 2;
    out.chosenCase = chosen.adjustCase;
    out.gamutClampedPixels = chosen.range.gamutClamped;
    return out;
}

AxisAdjustment
TileAdjuster::adjustAlongAxis(const std::vector<Vec3> &pixels,
                              const std::vector<double> &ecc_deg,
                              int axis) const
{
    if (pixels.size() != ecc_deg.size())
        throw std::invalid_argument("adjustAlongAxis: size mismatch");
    if (axis != 0 && axis != 2)
        throw std::invalid_argument(
            "adjustAlongAxis: axis must be Red (0) or Blue (2)");

    simd::TileSoA soa;
    fillLanes(soa, pixels, ecc_deg);
    computeExtrema(soa);
    const AxisOutcome o = moveAxis(soa, axis);

    AxisAdjustment out;
    out.adjusted = candidateOf(soa, axis);
    out.adjustCase = o.adjustCase;
    out.hlPlane = o.hlPlane;
    out.lhPlane = o.lhPlane;
    out.gamutClampedPixels = o.range.gamutClamped;
    return out;
}

TileAdjustment
TileAdjuster::adjustTile(const std::vector<Vec3> &pixels,
                         const std::vector<double> &ecc_deg) const
{
    if (pixels.size() != ecc_deg.size())
        throw std::invalid_argument("adjustTile: size mismatch");

    simd::TileSoA soa;
    fillLanes(soa, pixels, ecc_deg);
    const TileOutcome o = adjustTile(soa);

    TileAdjustment out;
    out.adjusted = candidateOf(soa, o.chosenAxis);
    out.chosenAxis = o.chosenAxis;
    out.chosenCase = o.chosenCase;
    out.caseRed = o.caseRed;
    out.caseBlue = o.caseBlue;
    out.bitsRed = o.bitsRed;
    out.bitsBlue = o.bitsBlue;
    out.gamutClampedPixels = o.gamutClampedPixels;
    return out;
}

} // namespace pce
