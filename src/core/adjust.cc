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

/** The Fig. 6 case a move kernel picked. */
AdjustCase
caseOf(const simd::AxisMove &m)
{
    return m.collapse ? AdjustCase::C2 : AdjustCase::C1;
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
    const Srgb8Table &t = srgb8Table();
    for (int ch = 0; ch < 3; ++ch) {
        codes.lo[ch] = range.nan[ch] ? 0 : t.code(range.lo[ch]);
        codes.hi[ch] = t.code(range.hi[ch]);
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
      simdLevel_(simd::effectiveSimdLevel(level)),
      srgbTable_(&srgb8Table())
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

simd::AxisMove
TileAdjuster::moveAxis(simd::TileSoA &soa, int axis) const
{
    return soa.n == 0 ? simd::AxisMove{}
                      : kernels_->moveAxis[axis == 0 ? 0 : 1](soa);
}

TileOutcome
TileAdjuster::adjustTile(simd::TileSoA &soa) const
{
    computeExtrema(soa);
    const simd::AxisMove red = moveAxis(soa, 0);
    const simd::AxisMove blue = moveAxis(soa, 2);

    TileOutcome out;
    out.caseRed = caseOf(red);
    out.caseBlue = caseOf(blue);
    out.bitsRed = bdTileBitsFromRange(red.range, soa.n, soa.codesOf(0));
    out.bitsBlue = bdTileBitsFromRange(blue.range, soa.n, soa.codesOf(2));

    const bool pick_red = out.bitsRed < out.bitsBlue;
    out.chosenAxis = pick_red ? 0 : 2;
    out.chosenCase = pick_red ? out.caseRed : out.caseBlue;
    out.gamutClampedPixels =
        (pick_red ? red : blue).range.gamutClamped;
    return out;
}

void
TileAdjuster::quantizeCandidate(const simd::TileSoA &soa, int axis,
                                std::size_t width, uint8_t *dst,
                                std::size_t row_bytes) const
{
    kernels_->quantize(soa, axis, *srgbTable_, width, dst, row_bytes);
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
    const simd::AxisMove o = moveAxis(soa, axis);

    AxisAdjustment out;
    out.adjusted = candidateOf(soa, axis);
    out.adjustCase = caseOf(o);
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
