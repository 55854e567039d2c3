#include "core/pipeline.hh"

#include <algorithm>
#include <stdexcept>

#include "color/srgb.hh"
#include "common/integrity.hh"
#include "obs/trace.hh"

namespace pce {

namespace {

/**
 * Tiles claimed per scheduler grab. Small enough that the pool
 * rebalances around the nearly-free foveal region, large enough that
 * the atomic counter is off the critical path.
 */
constexpr std::size_t kTileGrain = 8;

/**
 * The encoder's reusable working storage, one per calling thread, so
 * EncodedFrame holds only the frame. Pool workers use the references
 * their caller took before dispatch (on a worker, workspace() is the
 * worker's own).
 */
struct Workspace
{
    std::vector<simd::TileSoA> arenas;   ///< per-slot tile arenas
    std::vector<PipelineStats> partial;  ///< per-slot frame-pass stats
    BdEncodeScratch bd;        ///< per-tile stats, prefix, seams
    ImageU8 roundTrip;         ///< verifyRoundTrip's decoded image
    BdDecodeScratch bdDecode;
};

Workspace &
workspace()
{
    static thread_local Workspace ws;
    return ws;
}

} // namespace

PipelineStats &
PipelineStats::operator+=(const PipelineStats &o)
{
    totalTiles += o.totalTiles;
    fovealBypassTiles += o.fovealBypassTiles;
    c1Tiles += o.c1Tiles;
    c2Tiles += o.c2Tiles;
    redAxisTiles += o.redAxisTiles;
    blueAxisTiles += o.blueAxisTiles;
    gamutClampedPixels += o.gamutClampedPixels;
    saccadeBypassTiles += o.saccadeBypassTiles;
    return *this;
}

PerceptualEncoder::PerceptualEncoder(const DiscriminationModel &model,
                                     const PipelineParams &params)
    : model_(model), params_(params),
      adjuster_(model, params.extremaFn), codec_(params.tileSize)
{
    if (params_.threads < 1)
        throw std::invalid_argument("PerceptualEncoder: threads < 1");
    if (params_.threads > 1)
        pool_ = std::make_unique<ThreadPool>(params_.threads - 1);
}

template <class Bypass, class Adjusted>
void
PerceptualEncoder::framePass(const ImageF &frame,
                             const EccentricityMap *ecc,
                             const TileGrid &grid,
                             PipelineStats *stats_out,
                             const Bypass &bypass,
                             const Adjusted &adjusted) const
{
    if (ecc != nullptr &&
        (frame.width() != ecc->width() || frame.height() != ecc->height()))
        throw std::invalid_argument(
            "PerceptualEncoder: eccentricity map size mismatch");

    const std::size_t n_tiles = grid.count();
    const int participants = static_cast<int>(std::clamp<std::size_t>(
        n_tiles, 1, static_cast<std::size_t>(params_.threads)));
    // The caller's slots, shared with the workers by reference. An
    // arena costs ~28 lanes x tileSize^2 doubles (~230 KB at tile 32),
    // so larger tiles, whose math dwarfs one allocation, use call-local
    // arenas and retain nothing; the paper's sizes (4..16) reuse.
    Workspace &ws = workspace();
    std::vector<simd::TileSoA> arenas_local;
    std::vector<simd::TileSoA> &scratch =
        params_.tileSize <= 32 ? ws.arenas : arenas_local;
    if (scratch.size() < static_cast<std::size_t>(participants))
        scratch.resize(participants);
    // Every slot's arena takes a full tile here, on the caller: a slot
    // the scheduler happened to leave idle in the first frames must
    // not grow its arena in a later one.
    for (int slot = 0; slot < participants; ++slot)
        scratch[slot].resize(static_cast<std::size_t>(params_.tileSize) *
                             static_cast<std::size_t>(params_.tileSize));
    std::vector<PipelineStats> &partial = ws.partial;
    partial.assign(participants, PipelineStats{});

    auto processRange = [&](std::size_t begin, std::size_t end,
                            int slot) {
        PipelineStats &stats = partial[slot];
        simd::TileSoA &soa = scratch[slot];
        TileRect rect = grid.rect(begin);
        for (std::size_t i = begin; i < end; ++i, rect = grid.next(rect)) {
            ++stats.totalTiles;
            if (ecc == nullptr) {
                ++stats.saccadeBypassTiles;
                bypass(i, rect);
                continue;
            }

            // Foveal bypass: any tile touching the foveal region is
            // left numerically intact (Sec. 5.1). Tested on the map
            // alone, before any pixel is gathered.
            if (ecc->minInRect(rect) < params_.fovealCutoffDeg) {
                ++stats.fovealBypassTiles;
                bypass(i, rect);
                continue;
            }

            // Gather straight into the planar kernel lanes.
            soa.resize(static_cast<std::size_t>(rect.pixelCount()));
            double *px = soa.lane(simd::kPx);
            double *py = soa.lane(simd::kPy);
            double *pz = soa.lane(simd::kPz);
            double *pe = soa.lane(simd::kEcc);
            std::size_t k = 0;
            for (int y = rect.y0; y < rect.y0 + rect.h; ++y) {
                const Vec3 *row = &frame.at(rect.x0, y);
                for (int x = 0; x < rect.w; ++x, ++k) {
                    px[k] = row[x].x;
                    py[k] = row[x].y;
                    pz[k] = row[x].z;
                    pe[k] = ecc->at(rect.x0 + x, y);
                }
            }
            const TileOutcome adj = adjuster_.adjustTile(soa);
            if (adj.chosenCase == AdjustCase::C1)
                ++stats.c1Tiles;
            else
                ++stats.c2Tiles;
            if (adj.chosenAxis == 0)
                ++stats.redAxisTiles;
            else
                ++stats.blueAxisTiles;
            stats.gamutClampedPixels +=
                static_cast<std::size_t>(adj.gamutClampedPixels);
            adjusted(i, rect, soa, adj.chosenAxis);
        }
    };

    if (participants == 1)
        processRange(0, n_tiles, 0);
    else
        pool_->parallelFor(n_tiles, kTileGrain, participants,
                           processRange);

    if (stats_out) {
        PipelineStats total;
        for (const auto &p : partial)
            total += p;
        *stats_out = total;
    }
}

ImageF
PerceptualEncoder::adjustFrame(const ImageF &frame,
                               const EccentricityMap &ecc,
                               PipelineStats *stats_out) const
{
    ImageF out;
    adjustFrameInto(frame, ecc, out, stats_out);
    return out;
}

void
PerceptualEncoder::adjustFrameInto(const ImageF &frame,
                                   const EccentricityMap &ecc,
                                   ImageF &out,
                                   PipelineStats *stats_out) const
{
    if (out.width() != frame.width() ||
        out.height() != frame.height())
        out = ImageF(frame.width(), frame.height());
    framePass(
        frame, &ecc,
        TileGrid{frame.width(), frame.height(), params_.tileSize},
        stats_out,
        [&](std::size_t, const TileRect &r) {
            for (int y = r.y0; y < r.y0 + r.h; ++y)
                std::copy_n(&frame.at(r.x0, y), r.w, &out.at(r.x0, y));
        },
        [&](std::size_t, const TileRect &r, const simd::TileSoA &soa,
            int axis) {
            const double *ox = soa.candidate(axis, 0);
            const double *oy = soa.candidate(axis, 1);
            const double *oz = soa.candidate(axis, 2);
            std::size_t k = 0;
            for (int y = r.y0; y < r.y0 + r.h; ++y) {
                Vec3 *row = &out.at(r.x0, y);
                for (int x = 0; x < r.w; ++x, ++k)
                    row[x] = Vec3(ox[k], oy[k], oz[k]);
            }
        });
}

EncodedFrame
PerceptualEncoder::encodeFrame(const ImageF &frame,
                               const EccentricityMap &ecc) const
{
    EncodedFrame result;
    encodeFrameInto(frame, ecc, result);
    return result;
}

void
PerceptualEncoder::encodeFrameInto(const ImageF &frame,
                                   const EccentricityMap &ecc,
                                   EncodedFrame &out) const
{
    encodePass(frame, &ecc, out);
}

void
PerceptualEncoder::encodePass(const ImageF &frame,
                              const EccentricityMap *ecc,
                              EncodedFrame &out) const
{
    out.seal = FrameSeal{};
    ImageU8 &img = out.adjustedSrgb;
    if (img.width() != frame.width() || img.height() != frame.height())
        img = ImageU8(frame.width(), frame.height());
    BdEncodeScratch &bd = workspace().bd;
    {
        // A saccade frame's pass takes the encode/adjust slot of the
        // frame timeline under its own name: same slot, cheaper work.
        obs::TraceSpan span(ecc ? "encode/adjust"
                                : "encode/saccade_bypass");
        framePass(
            frame, ecc,
            codec_.prepareStats(bd, frame.width(), frame.height()),
            &out.stats,
            [&](std::size_t t, const TileRect &r) {
                for (int y = r.y0; y < r.y0 + r.h; ++y)
                    linearToSrgb8(&frame.at(r.x0, y),
                                  static_cast<std::size_t>(r.w),
                                  img.pixel(r.x0, y));
                bdTileStats(img, r, &bd.base[3 * t], &bd.width[3 * t]);
            },
            [&](std::size_t t, const TileRect &r, const simd::TileSoA &soa,
                int axis) {
                // Only the chosen candidate is quantized, straight into
                // the output rows; its code range is what the cost left,
                // so the BD stats need no rescan.
                adjuster_.quantizeCandidate(
                    soa, axis, static_cast<std::size_t>(r.w),
                    img.pixel(r.x0, r.y0),
                    3 * static_cast<std::size_t>(img.width()));
                const simd::CandidateCodes &c = soa.codesOf(axis);
                for (int k = 0; k < 3; ++k) {
                    bd.base[3 * t + k] = c.lo[k];
                    bd.width[3 * t + k] = static_cast<uint8_t>(
                        bdDeltaWidth(c.lo[k], c.hi[k]));
                }
            });
    }
    obs::TraceSpan span("encode/bd");
    codec_.encodeFromStats(img, &out.bdStats, out.bdStream, bd, pool(),
                           params_.threads);
}

GazePhase
PerceptualEncoder::encodeFrameGazeInto(const ImageF &frame,
                                       GazeTrackedEccentricity &gaze,
                                       const GazeSample &sample,
                                       EncodedFrame &out) const
{
    // The no-false-bypass guarantee of the incremental map requires
    // the always-exact band to cover the foveal cutoff plus the worst
    // accumulated shift error (gaze/incremental_ecc.hh).
    const IncrementalEccParams &ep = gaze.updater().params();
    if (ep.exactBandDeg <
        params_.fovealCutoffDeg + ep.maxAccumulatedErrorDeg)
        throw std::invalid_argument(
            "PerceptualEncoder::encodeFrameGazeInto: exactBandDeg < "
            "fovealCutoffDeg + maxAccumulatedErrorDeg breaks the "
            "foveal-bypass guarantee");
    if (frame.width() != gaze.map().width() ||
        frame.height() != gaze.map().height())
        throw std::invalid_argument(
            "PerceptualEncoder::encodeFrameGazeInto: frame does not "
            "match the gaze state's eccentricity map");

    GazePhase phase;
    {
        obs::TraceSpan span("encode/gaze_update");
        phase = gaze.update(sample);
    }
    if (phase == GazePhase::Fixation) {
        encodeFrameInto(frame, gaze.map(), out);
        return phase;
    }

    // Saccadic suppression: every tile takes the bypass path.
    encodePass(frame, nullptr, out);
    return phase;
}

bool
PerceptualEncoder::verifyRoundTrip(const EncodedFrame &frame) const
{
    Workspace &ws = workspace();
    BdCodec::decodeInto(frame.bdStream, ws.roundTrip, &ws.bdDecode, pool(),
                        params_.threads);
    return ws.roundTrip == frame.adjustedSrgb;
}

void
sealFrame(EncodedFrame &frame)
{
    frame.seal.bdStreamCrc =
        crc32(frame.bdStream.data(), frame.bdStream.size());
    frame.seal.srgbHash =
        hash64(frame.adjustedSrgb.data().data(),
               frame.adjustedSrgb.data().size());
    frame.seal.sealed = true;
}

bool
verifyFrameSeal(const EncodedFrame &frame)
{
    if (!frame.seal.sealed)
        return false;
    return crc32(frame.bdStream.data(), frame.bdStream.size()) ==
               frame.seal.bdStreamCrc &&
           hash64(frame.adjustedSrgb.data().data(),
                  frame.adjustedSrgb.data().size()) ==
               frame.seal.srgbHash;
}

} // namespace pce
